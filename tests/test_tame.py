"""Tame words: elementary generators, evaluation, inversion, transport."""

import random
from fractions import Fraction

import pytest

from oracles import oracle_evaluate
from weylift import (
    BracketFlavor,
    Endo,
    Field,
    QQ,
    bracket_violations,
    jacobian_is_unit,
)
from weylift.errors import (
    FieldMismatch,
    FlavorMismatch,
    IndexOutOfRange,
    NotSymplectic,
    SideMismatch,
    SingularLinearPart,
    WeyliftError,
    WrongArity,
)
from weylift.serialize import word_from_json, word_to_json
from weylift.tame import (
    ElementaryGen,
    TameWord,
    evaluate,
    gen_endo,
    invert_word,
    random_symplectic_matrix,
    random_tame,
    transport,
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
@pytest.mark.parametrize(
    "kind, side", (("symplectic", "P"), ("symplectic", "W"), ("gl", "P"))
)
@pytest.mark.parametrize("flavor_kind", ("standard", "haug"))
def test_evaluate_matches_right_to_left_oracle(n, kind, side, flavor_kind):
    flavor = BracketFlavor(flavor_kind, n)
    for seed in range(3):
        word = random_tame(n, 4, 3, seed=seed, kind=kind)
        for field in FIELDS:
            for maxdeg in _truncations(side, flavor):
                got = evaluate(word, side, flavor, field, maxdeg)
                assert got == oracle_evaluate(word, side, flavor, field, maxdeg)


@pytest.mark.parametrize(
    "n, kind, side", ((1, "symplectic", "W"), (2, "symplectic", "P"), (2, "gl", "P"))
)
def test_evaluation_continues_from_a_prefix(n, kind, side):
    flavor = BracketFlavor("haug", n)
    word = random_tame(n, 5, 2, seed=11, kind=kind)
    for maxdeg in (None, 4):
        whole = evaluate(word, side, flavor, QQ, maxdeg)
        for cut in range(len(word) + 1):
            prefix = TameWord(kind, n, word.gens[:cut])
            suffix = TameWord(kind, n, word.gens[cut:])
            start = evaluate(prefix, side, flavor, QQ, maxdeg)
            assert evaluate(suffix, side, flavor, QQ, maxdeg, start=start) == whole


def test_empty_word_is_the_identity():
    for side, flavor in (("P", FL2), ("W", BracketFlavor("haug", 1))):
        empty = TameWord("symplectic", flavor.pairs, [])
        assert evaluate(empty, side, flavor, QQ) == Endo.identity(side, flavor, QQ)


def test_start_must_match_side_flavor_and_field():
    word = random_tame(1, 2, 2, seed=1)
    for start, error in (
        (Endo.identity("W", FL1, QQ), SideMismatch),
        (Endo.identity("P", BracketFlavor("haug", 1), QQ), FlavorMismatch),
        (Endo.identity("P", FL1, Field("Fp", 5)), FieldMismatch),
    ):
        with pytest.raises(error):
            evaluate(word, "P", FL1, QQ, start=start)


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
    e = gen_endo(ElementaryGen("shift", (0, {(0, 2): 1})), "P", FL1, QQ)
    assert [str(i) for i in e.images] == ["p1^2 + x1", "p1"]


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


def test_shift_inverse_negates():
    g = ElementaryGen("xshift", (0, {2: 1, 3: -4}))
    assert g.inverse().data == (0, {2: Fraction(-1), 3: Fraction(4)})


def test_symplectic_inverse_matches_gauss_jordan():
    # The sp inverse reads -J A^T J off the signed permutation J; the lin
    # inverse eliminates, so the two share no code.
    rng = random.Random(3)
    for n in (1, 2, 3):
        for _ in range(5):
            matrix = random_symplectic_matrix(n, rng)
            sp_inverse = ElementaryGen("sp", matrix).inverse().data
            assert sp_inverse == ElementaryGen("lin", matrix).inverse().data


def test_singular_linear_inverse_rejected():
    g = ElementaryGen("lin", [[1, 1], [1, 1]])
    with pytest.raises(SingularLinearPart):
        g.inverse()


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


def test_transport_preserves_data_changes_side():
    word = TameWord("symplectic", 1, [
        ElementaryGen("xshift", (0, {2: 1})),
        ElementaryGen("pshift", (0, {1: 1})),
    ])
    moved = transport(word)
    assert moved.gens == word.gens
    wendo = evaluate(moved, "W", FL1, QQ)
    assert not bracket_violations(wendo)
    pendo = evaluate(word, "P", FL1, QQ)
    assert [str(a) for a in wendo.images] == [str(b) for b in pendo.images]


def test_transport_rejects_gl():
    word = TameWord("gl", 1, [ElementaryGen("lin", [[1, 2], [0, 1]])])
    with pytest.raises(NotSymplectic):
        transport(word)
    with pytest.raises(SideMismatch):
        evaluate(word, "W", FL1, QQ)


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


def test_random_gl_words_have_unit_jacobian():
    for seed in range(5):
        word = random_tame(1, 4, 3, seed=seed, kind="gl")
        endo = evaluate(word, "P", FL1, QQ)
        assert jacobian_is_unit(endo)


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
    with pytest.raises(WeyliftError):
        TameWord("symplectic", 1, [ElementaryGen("lin", [[1, 0], [0, 1]])])
    with pytest.raises(WrongArity):
        TameWord("symplectic", 2, [ElementaryGen("sp", [[1, 0], [0, 1]])])
    with pytest.raises(IndexOutOfRange):
        TameWord("symplectic", 1, [ElementaryGen("xshift", (5, {2: 1}))])
    with pytest.raises(IndexOutOfRange):
        TameWord("gl", 1, [ElementaryGen("shift", (4, {(0, 2): 1}))])
    with pytest.raises(WrongArity):
        TameWord("gl", 1, [ElementaryGen("shift", (0, {(0, 2, 1): 1}))])


def test_shift_cannot_touch_own_generator():
    with pytest.raises(WeyliftError):
        ElementaryGen("shift", (0, {(2, 0): 1}))


def test_arity_against_flavor():
    word = random_tame(2, 3, 2, seed=1)
    with pytest.raises(WrongArity):
        evaluate(word, "P", FL1, QQ)


def test_word_json_round_trip():
    for kind, n in (("symplectic", 2), ("gl", 1)):
        word = random_tame(n, 5, 3, seed=42, kind=kind)
        doc = word_to_json(word)
        assert word_from_json(doc) == word
