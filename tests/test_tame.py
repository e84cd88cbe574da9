"""Tame words: elementary generators, evaluation on both sides, inversion."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import oracle_evaluate, sympy_jacobian, sympy_symbols
from weylift import (
    BracketFlavor,
    Endo,
    Field,
    QQ,
    bracket_violations,
)
from weylift.errors import (
    FieldMismatch,
    FlavorMismatch,
    IndexOutOfRange,
    SideMismatch,
    SingularLinearPart,
    WeyliftError,
    WrongArity,
)
from weylift.linalg import mat_inv
from weylift.serialize import (
    canonical_json,
    endo_from_json,
    endo_to_json,
    word_from_json,
    word_to_json,
)
from weylift.tame import (
    SP,
    XSHIFT,
    ElementaryGen,
    TameWord,
    evaluate,
    gen_endo,
    invert_word,
    random_symplectic_matrix,
    random_tame,
)

FL1 = BracketFlavor("standard", 1)
FL2 = BracketFlavor("standard", 2)
FIELDS = (QQ, Field("Fp", 5), Field("Fp", 7))


def _truncations(side, flavor):
    """The maxdeg values evaluate takes on this side and flavor: exact,
    then 3..6.  Truncated products on the ordered side need the haug
    flavor."""
    if side == "P" or flavor.kind == "haug":
        return (None, 3, 4, 5, 6)
    return (None,)


@pytest.mark.parametrize("n", (1, 2))
@pytest.mark.parametrize("side", ("P", "W"), ids=("symplectic-P", "symplectic-W"))
@pytest.mark.parametrize("flavor_kind", ("standard", "haug"))
def test_evaluate_matches_right_to_left_oracle(n, side, flavor_kind):
    flavor = BracketFlavor(flavor_kind, n)
    for seed in range(3):
        word = random_tame(n, 4, 3, seed=seed)
        for field in FIELDS:
            for maxdeg in _truncations(side, flavor):
                got = evaluate(word, side, flavor, field, maxdeg)
                assert got == oracle_evaluate(word, side, flavor, field, maxdeg)


@pytest.mark.parametrize(
    "n, side", ((1, "W"), (2, "P")), ids=("1-symplectic-W", "2-symplectic-P")
)
def test_evaluation_continues_from_a_prefix(n, side):
    flavor = BracketFlavor("haug", n)
    word = random_tame(n, 5, 2, seed=11)
    for maxdeg in (None, 4):
        whole = evaluate(word, side, flavor, QQ, maxdeg)
        for cut in range(len(word) + 1):
            prefix = TameWord(word.kind, n, word.gens[:cut])
            suffix = TameWord(word.kind, n, word.gens[cut:])
            start = evaluate(prefix, side, flavor, QQ, maxdeg)
            assert evaluate(suffix, side, flavor, QQ, maxdeg, start=start) == whole


def test_empty_word_is_the_identity():
    for side, flavor in (("P", FL2), ("W", BracketFlavor("haug", 1))):
        empty = TameWord("symplectic", flavor.pairs, [])
        assert evaluate(empty, side, flavor, QQ) == Endo.identity(side, flavor, QQ)


def test_start_must_match_side_flavor_and_field():
    # Every entry point that takes an endo or an element of another side,
    # flavor or field refuses it through SparseElement._check_compatible.
    word = random_tame(1, 2, 2, seed=1)
    base = Endo.identity("P", FL1, QQ)
    entries = {
        "from_slots": lambda other: Endo.from_slots("P", FL1, QQ, other.slots),
        "apply": lambda other: base.apply(other.images[0]),
        "compose": base.compose,
        "evaluate": lambda other: evaluate(word, "P", FL1, QQ, start=other),
    }
    # The center flavor has the key layout of FL1 and other names.
    for other, error in (
        (Endo.identity("W", FL1, QQ), SideMismatch),
        (Endo.identity("P", FL1.center_flavor(), QQ), FlavorMismatch),
        (Endo.identity("P", FL1, Field("Fp", 5)), FieldMismatch),
    ):
        for entry in entries.values():
            with pytest.raises(error):
                entry(other)
    doc = {**endo_to_json(base), "side": "Q"}
    for make in (
        lambda: Endo("Q", FL1, QQ, base.images),
        lambda: Endo.from_slots("Q", FL1, QQ, base.slots),
        lambda: endo_from_json(doc),
    ):
        with pytest.raises(SideMismatch, match=r"^side must be one of \('P', 'W'\)$"):
            make()


def test_two_letter_fixture():
    # first letter acts outermost: the word means "xshift after pshift"
    word = TameWord("symplectic", 1, [
        ElementaryGen("xshift", (0, {1: 1})),
        ElementaryGen("pshift", (0, {1: 1})),
    ])
    endo = evaluate(word, "P", FL1, QQ)
    assert [str(i) for i in endo.images] == ["x1 + p1", "x1 + 2*p1"]


def test_gen_endo_fixtures():
    e = gen_endo(ElementaryGen("xshift", (0, {2: 1})), "P", FL1, QQ)
    assert [str(i) for i in e.images] == ["p1^2 + x1", "p1"]
    e = gen_endo(ElementaryGen("pshift", (0, {3: -2})), "P", FL1, QQ)
    assert [str(i) for i in e.images] == ["x1", "-2*x1^3 + p1"]
    e = gen_endo(ElementaryGen("sp", [[0, 1], [-1, 0]]), "P", FL1, QQ)
    assert [str(i) for i in e.images] == ["p1", "-x1"]


def test_gen_inverses_compose_to_identity():
    gens = [
        ElementaryGen("xshift", (1, {2: Fraction(3, 2)})),
        ElementaryGen("pshift", (0, {1: -1})),
        ElementaryGen("sp", [[1, 0, 2, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
    ]
    for g in gens:
        e = gen_endo(g, "P", FL2, QQ)
        ei = gen_endo(g.inverse(), "P", FL2, QQ)
        assert e.compose(ei) == gen_endo(g, "P", FL2, QQ).identity("P", FL2, QQ)


def test_shift_cannot_touch_own_generator():
    # A shift polynomial is read in the conjugate variable alone, so the
    # multivariate shift letter, whose exponents could name the shifted
    # generator, is refused, and xshift leaves its own p untouched.
    for exponents in ((0, 2), (2, 0)):
        with pytest.raises(WeyliftError):
            ElementaryGen("shift", (0, {exponents: 1}))
    e = gen_endo(ElementaryGen("xshift", (1, {3: 1})), "P", FL2, QQ)
    assert e.images[3] == e.identity("P", FL2, QQ).images[3]


def test_shift_inverse_negates():
    g = ElementaryGen("xshift", (0, {2: 1, 3: -4}))
    assert g.inverse().data == (0, {2: Fraction(-1), 3: Fraction(4)})


def test_symplectic_inverse_matches_gauss_jordan():
    # The sp inverse reads -J A^T J off the signed permutation J; mat_inv
    # eliminates, so the two share no code.
    rng = random.Random(3)
    for n in (1, 2, 3):
        for _ in range(5):
            matrix = random_symplectic_matrix(n, rng)
            sp_inverse = ElementaryGen("sp", matrix).inverse().data
            assert [list(row) for row in sp_inverse] == mat_inv(QQ, matrix)


def test_singular_linear_inverse_rejected():
    with pytest.raises(SingularLinearPart):
        mat_inv(QQ, [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]])


def test_invert_word_round_trip():
    word = random_tame(2, 5, 3, seed=7)
    endo = evaluate(word, "P", FL2, QQ)
    back = evaluate(invert_word(word), "P", FL2, QQ)
    assert endo.compose(back) == endo.identity("P", FL2, QQ)
    assert back.compose(endo) == endo.identity("P", FL2, QQ)


def test_invert_word_reverses_kinds():
    word = TameWord("symplectic", 1, [
        ElementaryGen("xshift", (0, {2: 1})),
        ElementaryGen("pshift", (0, {1: 1})),
    ])
    assert [g.kind for g in invert_word(word).gens] == ["pshift", "xshift"]


def test_one_word_reads_on_both_sides():
    word = TameWord("symplectic", 1, [
        ElementaryGen("xshift", (0, {2: 1})),
        ElementaryGen("pshift", (0, {1: 1})),
    ])
    wendo = evaluate(word, "W", FL1, QQ)
    assert not bracket_violations(wendo)
    pendo = evaluate(word, "P", FL1, QQ)
    assert [str(a) for a in wendo.images] == [str(b) for b in pendo.images]


def test_transport_rejects_gl():
    # No general-linear word is left to transport to the W side: the "gl"
    # kind and its "lin" letter are refused when built or read.
    with pytest.raises(WeyliftError):
        TameWord("gl", 1, [])
    with pytest.raises(WeyliftError):
        ElementaryGen("lin", [[1, 2], [0, 1]])
    with pytest.raises(WeyliftError):
        word_from_json({"kind": "gl", "n": 1, "gens": []})


def test_random_tame_is_deterministic():
    a = random_tame(2, 6, 3, seed=123)
    b = random_tame(2, 6, 3, seed=123)
    c = random_tame(2, 6, 3, seed=124)
    assert a == b
    assert a != c


def test_random_tame_words_are_symplectic():
    for seed in range(5):
        word = random_tame(2, 4, 3, seed=seed)
        endo = evaluate(word, "P", FL2, QQ)
        assert not bracket_violations(endo)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([FL1, FL2]), st.integers(0, 10**6))
def test_symplectic_words_have_jacobian_one(flavor, seed):
    # The bracket check stands in for a determinant: J Omega J^T = Omega
    # forces det J = 1.
    word = random_tame(flavor.pairs, 3, 3, seed=seed)
    images = evaluate(word, "P", flavor, QQ).images
    assert sympy_jacobian(images, sympy_symbols(flavor)) == 1


def test_weyl_side_evaluation_preserves_commutators():
    for seed in range(4):
        word = random_tame(1, 4, 2, seed=seed)
        wendo = evaluate(word, "W", FL1, QQ)
        assert not bracket_violations(wendo)


def test_truncated_evaluation_matches_truncation():
    word = random_tame(1, 4, 3, seed=9)
    exact = evaluate(word, "P", FL1, QQ)
    for maxdeg in (2, 3, 4):
        trunc = evaluate(word, "P", FL1, QQ, maxdeg=maxdeg)
        for a, b in zip(trunc.images, exact.images):
            assert a == b.truncate(maxdeg)


def test_word_validation():
    with pytest.raises(WeyliftError):
        TameWord("affine", 1, [])
    with pytest.raises(WrongArity):
        TameWord("symplectic", 2, [ElementaryGen("sp", [[1, 0], [0, 1]])])
    with pytest.raises(IndexOutOfRange):
        TameWord("symplectic", 1, [ElementaryGen("xshift", (5, {2: 1}))])


def test_arity_against_flavor():
    word = random_tame(2, 3, 2, seed=1)
    with pytest.raises(WrongArity):
        evaluate(word, "P", FL1, QQ)


def test_word_json_round_trip():
    for n in (1, 2):
        word = random_tame(n, 5, 3, seed=42)
        doc = word_to_json(word)
        assert word_from_json(doc) == word


def test_word_json_shares_equal_matrices():
    a = ElementaryGen(SP, [[1, Fraction(1, 2)], [0, 1]])
    shift = ElementaryGen(XSHIFT, (0, {2: 3}))
    word = TameWord("symplectic", 1, [a, shift, a.inverse(), a])
    doc = word_to_json(word)
    first, inverse, last = (g["matrix"] for g in doc["gens"] if g["kind"] == SP)
    assert last is first and inverse is not first
    assert first == (("1", "1/2"), ("0", "1"))
    assert canonical_json(doc) == canonical_json(json.loads(json.dumps(doc)))
    assert word_from_json(doc) == word


def test_letters_hold_q_raw_values():
    # An integral value is stored as an int, the rest as Fractions with
    # denominator above 1; inverse keeps that form, and the JSON of a word
    # does not see how its values were given.
    def raw(gen):
        values = gen.data[1].values() if gen.kind != SP else [v for row in gen.data for v in row]
        return all(type(v) is int or (type(v) is Fraction and v.denominator > 1) for v in values)

    shift = ElementaryGen(XSHIFT, (0, {2: Fraction(4, 2), 3: Fraction(1, 2), 4: "6/3"}))
    assert shift.data == (0, {2: 2, 3: Fraction(1, 2), 4: 2})
    assert type(shift.data[1][2]) is int and type(shift.data[1][4]) is int
    a = ElementaryGen(SP, [[Fraction(2, 2), Fraction(1, 2)], [0, "1"]])
    assert a.data == ((1, Fraction(1, 2)), (0, 1))
    for gen in (shift, a):
        assert raw(gen) and raw(gen.inverse())
    fracs = TameWord("symplectic", 1, [
        ElementaryGen(SP, [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]]),
        ElementaryGen(XSHIFT, (0, {2: Fraction(3), 3: Fraction(-1, 2)})),
    ])
    ints = TameWord("symplectic", 1, [
        ElementaryGen(SP, [[1, 2], [0, 1]]),
        ElementaryGen(XSHIFT, (0, {2: 3, 3: "-1/2"})),
    ])
    assert canonical_json(word_to_json(fracs)) == canonical_json(word_to_json(ints))
    assert all(raw(g) for word in (fracs, ints) for g in word.gens)
    assert all(raw(g) for g in random_tame(2, 6, 3, seed=5).gens)


def test_letters_refuse_data_they_would_round():
    # A float would be stored rounded (0.1 as 3602879701896397/2^55), and an
    # exponent like 2.5 would be read as 2.
    for poly in ({2: 0.1}, {2: 1.0}, {2: "0.1.2"}, {2: "1/0"}, {2: None}):
        with pytest.raises(WeyliftError):
            ElementaryGen(XSHIFT, (0, poly))
    for poly in ({2.5: 1}, {2.0: 1}, {"2": 1}, {0: 1}, {-1: 1}, {True: 1}):
        with pytest.raises(WeyliftError):
            ElementaryGen(XSHIFT, (0, poly))
    with pytest.raises(WeyliftError):
        ElementaryGen(SP, [[1, 0.5], [0, 1]])
    # A pair index is not rounded either: 0.9 was read as pair 0.
    with pytest.raises(WeyliftError):
        ElementaryGen(XSHIFT, (0.9, {2: 1}))
    assert ElementaryGen(XSHIFT, (0, {2: "1/2", 3: 0})).data == (0, {2: Fraction(1, 2)})


_ACCEPTED_VALUES = (1, "-3", "6/3", "1/2")
_REFUSED_VALUES = ("0.5", " 2", "+1", "1e3", "\u0663", "1_0")


def _built_both_ways(kind, data, doc_letter):
    """The letter ElementaryGen builds from data and the one word_from_json
    reads from doc_letter, or the message each refuses with."""
    doc = {"kind": "symplectic", "n": 1, "gens": [{"kind": kind, **doc_letter}]}
    out = []
    for build in (lambda: ElementaryGen(kind, data), lambda: word_from_json(doc).gens[0]):
        try:
            out.append(build())
        except WeyliftError as exc:
            out.append(str(exc))
    return out


@pytest.mark.parametrize("value", _ACCEPTED_VALUES + _REFUSED_VALUES, ids=repr)
def test_letters_and_documents_share_the_value_rule(value):
    # ElementaryGen is the one reader of word values: a letter built in
    # Python refuses what a document refuses, with the same message.
    library, document = _built_both_ways(XSHIFT, (0, {2: value}), {"index": 0, "poly": {"2": value}})
    if value in _ACCEPTED_VALUES:
        assert library == document == ElementaryGen(XSHIFT, (0, {2: Fraction(value)}))
    else:
        assert library == document
        assert library == f'word value {value!r} is not an integer, a Fraction or a rational string such as "-3/4"'


@pytest.mark.parametrize("matrix", (["10", "01"], "1001", [[1, 0], "01"]), ids=repr)
def test_letters_and_documents_share_the_row_rule(matrix):
    # A string row would be read one character at a time, as ["10", "01"]
    # was read as the identity.
    library, document = _built_both_ways(SP, matrix, {"matrix": matrix})
    assert library == document
    assert library == f"an sp matrix and its rows must be lists or tuples (JSON arrays), got {matrix!r}"
