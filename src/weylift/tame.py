"""Tame words: finite sequences of elementary generators.

A word multiplies left to right, with the rightmost generator acting
first, so evaluate([g1, g2]) sends f to g1(g2(f)).  evaluate walks the
letters left to right on the list of generator images: the images of
start . g1 . .. . gi are those of start . g1 . .. . g(i-1) with the
letter gi substituted into them, so an evaluation of a prefix of a word
continues into the whole word.  Words are symplectic: they mix integral
symplectic matrices with single-coordinate shifts by a polynomial in
the conjugate variable.  Such shifts preserve the bracket exactly and
also define endomorphisms of the ordered algebra, so one word, with
the same data, is read on either side by evaluate's side argument.

Generator data is stored as Q raw values (fields), an int where
integral, and is read into the coefficient field on evaluation.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .elements import check_size, substitute
from .endo import Endo, element_class
from .errors import IndexOutOfRange, SideMismatch, WeyliftError, WrongArity
from .fields import QQ
from .linalg import identity_matrix, mat_mul, symplectic_inverse

SP = "sp"
XSHIFT = "xshift"
PSHIFT = "pshift"


def _q_raw(v):
    """An int, Fraction or exact rational string as a Q raw value; a float
    would be rounded and is refused."""
    if type(v) is int:
        return v
    if isinstance(v, (Fraction, str)):
        try:
            return QQ.from_fraction(Fraction(v))
        except (ValueError, ZeroDivisionError):
            pass
    raise WeyliftError(f"word value {v!r} is not an int, a Fraction or an exact rational")


class ElementaryGen:
    """One step of a tame word.

    sp carries a square matrix of Q raw values in data.
    xshift / pshift carry (index, {exponent: coefficient}) with the
    polynomial read in the conjugate variable of the indexed pair.
    """

    __slots__ = ("kind", "data")

    def __init__(self, kind, data):
        if kind == SP:
            matrix = tuple(tuple(map(_q_raw, row)) for row in data)
            if any(len(row) != len(matrix) for row in matrix):
                raise WrongArity("matrix generator must be square")
            self.data = matrix
        elif kind in (XSHIFT, PSHIFT):
            index, poly = data
            if type(index) is not int or any(type(e) is not int or e < 1 for e in poly):
                raise WeyliftError("a shift needs an int pair index and int exponents >= 1")
            self.data = (index, {e: r for e, c in poly.items() if (r := _q_raw(c))})
        else:
            raise WeyliftError(f"unknown generator kind {kind!r}")
        self.kind = kind

    def __eq__(self, other):
        if not isinstance(other, ElementaryGen):
            return NotImplemented
        return self.kind == other.kind and self.data == other.data

    def __repr__(self):
        return f"ElementaryGen({self.kind!r}, {self.data!r})"

    def inverse(self):
        if self.kind == SP:
            return ElementaryGen(SP, symplectic_inverse(self.data))
        index, poly = self.data
        return ElementaryGen(self.kind, (index, {e: -c for e, c in poly.items()}))


class TameWord:
    """kind is "symplectic", the only word kind; n is the number of pairs."""

    __slots__ = ("kind", "n", "gens")

    def __init__(self, kind, n, gens):
        if kind != "symplectic":
            raise WeyliftError(f"unknown word kind {kind!r}")
        if type(n) is not int or n < 1:
            raise WeyliftError(f"a word's n must be an int >= 1, got {n!r}")
        gens = tuple(gens)
        g = 2 * n
        for gen in gens:
            if gen.kind == SP and len(gen.data) != g:
                raise WrongArity(f"matrix generator must be {g} x {g}")
            if gen.kind != SP and not 0 <= gen.data[0] < n:
                raise IndexOutOfRange(f"pair index {gen.data[0]} out of range")
        self.kind = kind
        self.n = n
        self.gens = gens

    def __len__(self):
        return len(self.gens)

    def __eq__(self, other):
        if not isinstance(other, TameWord):
            return NotImplemented
        return self.n == other.n and self.gens == other.gens

    def __repr__(self):
        return f"TameWord({self.kind!r}, n={self.n}, len={len(self.gens)})"


def invert_word(word):
    """Reverse the word and invert each generator."""
    return TameWord(word.kind, word.n, [g.inverse() for g in reversed(word.gens)])


def gen_endo(gen, side, flavor, field):
    """The endomorphism of one elementary generator."""
    cls = element_class(side)
    g = flavor.main_count
    if gen.kind == SP:
        matrix = [[field.from_fraction(v) for v in row] for row in gen.data]
        return Endo.linear(side, flavor, field, matrix)
    images = [cls.generator(field, flavor, i) for i in range(g)]
    index, poly = gen.data
    target = index if gen.kind == XSHIFT else flavor.conjugate_index(index)
    var = flavor.conjugate_index(target)
    shift = cls.from_terms(
        field,
        flavor,
        [(flavor.gen_key(var, e), field.from_fraction(c)) for e, c in poly.items()],
    )
    images[target] = images[target] + shift
    return Endo(side, flavor, field, images)


def evaluate(word, side, flavor, field, maxdeg=None, start=None):
    """The endo start . g1 . .. . gk of the word [g1, .., gk], truncated
    above graded degree maxdeg when one is given.

    start defaults to the identity; a start on the same side, flavor and
    field continues its images, so evaluate(word[i:], start=evaluate(
    word[:i])) equals evaluate(word) at every cut i.  The letters are
    read left to right on the images of start . g1 . .. . g(i-1):

    - an sp letter replaces them with linear combinations of
      themselves, with no products;
    - an xshift or pshift letter adds f(image of the conjugate slot) to
      one image, by deg f - 1 products; the other images are shared.

    Each new image is one elements.substitute call, which builds each
    power of an image once.  Every letter fixes h and the k symbols, so
    their images are those of start.  Truncation by graded degree is a
    ring map on images without a constant term, so truncating every
    product gives the truncation of the exact endo.
    """
    if flavor.pairs != word.n:
        raise WrongArity(f"word has {word.n} pairs, flavor has {flavor.pairs}")
    if not flavor.paired:
        raise SideMismatch("tame words act on paired flavors")
    cls = element_class(side)
    if start is None:
        start = Endo.identity(side, flavor, field)
    else:
        cls(field, flavor)._check_compatible(start.slots[0])
    images = start.slots
    if maxdeg is None:
        mul = cls.__mul__
    else:
        images = [img.truncate(maxdeg) for img in images]

        def mul(a, b):
            return a.mul_truncated(b, maxdeg)

    g = flavor.main_count
    images, extra = images[:g], images[g:]
    for gen in word.gens:
        if gen.kind == SP:
            rows = [[field.from_fraction(v) for v in row] for row in gen.data]
            images = [
                substitute(
                    images,
                    [(None, [(s, 1)], r) for s, r in enumerate(row) if not field.is_zero(r)],
                    mul,
                )
                for row in rows
            ]
            continue
        index, poly = gen.data
        target = index if gen.kind == XSHIFT else flavor.conjugate_index(index)
        var = flavor.conjugate_index(target)
        parts = [(None, [(var, e)], field.from_fraction(c)) for e, c in sorted(poly.items())]
        images[target] = substitute(images, parts, mul, images[target])
    return Endo.from_slots(side, flavor, field, images + extra)


def _random_sl2(rng):
    a, b, c, d = 1, 0, 0, 1
    for _ in range(3):
        m = rng.choice([-2, -1, 1, 2])
        if rng.random() < 0.5:
            a, b = a + m * c, b + m * d
        else:
            c, d = c + m * a, d + m * b
    return a, b, c, d


def _embed_sl2(n, i, abcd):
    a, b, c, d = abcd
    out = identity_matrix(QQ, 2 * n)
    out[i][i], out[i][n + i] = a, b
    out[n + i][i], out[n + i][n + i] = c, d
    return out


def _pair_swap(n, i, j):
    out = identity_matrix(QQ, 2 * n)
    out[i], out[j] = out[j], out[i]
    out[n + i], out[n + j] = out[n + j], out[n + i]
    return out


def _cross_transvection(n, i, j, m):
    # x_i += m x_j and p_j -= m p_i preserve the pairing.
    out = identity_matrix(QQ, 2 * n)
    out[i][j] = m
    out[n + j][n + i] = -m
    return out


def random_symplectic_matrix(n, rng):
    acc = identity_matrix(QQ, 2 * n)
    for _ in range(3):
        roll = rng.random()
        if roll < 0.5 or n == 1:
            factor = _embed_sl2(n, rng.randrange(n), _random_sl2(rng))
        elif roll < 0.75:
            i, j = rng.sample(range(n), 2)
            factor = _pair_swap(n, i, j)
        else:
            i, j = rng.sample(range(n), 2)
            factor = _cross_transvection(n, i, j, rng.choice([-2, -1, 1, 2]))
        acc = mat_mul(acc, factor)
    return acc


def _random_univariate(rng, maxdeg):
    deg = rng.randrange(2, max(3, maxdeg + 1))
    poly = {deg: rng.choice([-3, -2, -1, 1, 2, 3])}
    for e in range(2, deg):
        if rng.random() < 0.4:
            poly[e] = rng.choice([-2, -1, 1, 2])
    return poly


def random_tame(n, length, maxdeg, seed):
    """Deterministic pseudo-random symplectic word with small integral data.
    Its sp letters and its endo hold about (2n)^2 entries each, and each
    shift letter raises the degree of the images at most max(2, maxdeg)
    fold; the size bound (elements.check_size) caps both the entries and
    the degree max(2, maxdeg)^length the images can reach."""
    check_size((2 * n) ** 2, "a word on n={} pairs has {size} matrix entries", n)
    top, reach = max(2, maxdeg), 1
    for _ in range(length):
        reach *= top
        check_size(
            reach,
            "a word of {0} letters with shifts of degree up to {1} reaches degree {1}^{0}",
            length,
            top,
        )
    rng = random.Random(seed)
    gens = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.4:
            gens.append(ElementaryGen(SP, random_symplectic_matrix(n, rng)))
        else:
            kind = XSHIFT if roll < 0.7 else PSHIFT
            gens.append(ElementaryGen(kind, (rng.randrange(n), _random_univariate(rng, maxdeg))))
    return TameWord("symplectic", n, gens)
