"""Tame words: finite sequences of elementary generators.

A word multiplies left to right, with the rightmost generator acting
first, so evaluate([g1, g2]) sends f to g1(g2(f)).  evaluate walks the
letters left to right on the list of generator images: the images of
start . g1 . .. . gi are those of start . g1 . .. . g(i-1) with the
letter gi substituted into them, so an evaluation of a prefix of a word
continues into the whole word.  Symplectic words mix
integral symplectic matrices with single-coordinate shifts by a
polynomial in the conjugate variable; such shifts preserve the bracket
exactly and also define endomorphisms of the ordered algebra, so one
word can be read on either side.  General-linear words additionally
allow invertible matrices and triangular multivariate shifts, and only
act on the commutative side.

Generator data is stored over Z (or Q), so one word can be reduced and
evaluated over any coefficient field.
"""

from __future__ import annotations

import random
from fractions import Fraction
from operator import mul as _mul

from .elements import sum_terms
from .endo import Endo, element_class
from .errors import (
    FieldMismatch,
    FlavorMismatch,
    IndexOutOfRange,
    NotSymplectic,
    SideMismatch,
    WeyliftError,
    WrongArity,
)
from .fields import QQ
from .flavors import STANDARD, BracketFlavor
from .linalg import mat_inv, mat_mul, omega_matrix_raw, symplectic_inverse

SP = "sp"
LIN = "lin"
XSHIFT = "xshift"
PSHIFT = "pshift"
SHIFT = "shift"

_SYMPLECTIC_KINDS = (SP, XSHIFT, PSHIFT)
_GL_KINDS = (SP, LIN, XSHIFT, PSHIFT, SHIFT)


class ElementaryGen:
    """One step of a tame word.

    sp / lin carry a square matrix over Z or Q in data.
    xshift / pshift carry (index, {exponent: coefficient}) with the
    polynomial read in the conjugate variable of the indexed pair.
    shift carries (index, {exponent tuple: coefficient}) where the
    tuple runs over all generators and the indexed slot stays zero.
    """

    __slots__ = ("kind", "data")

    def __init__(self, kind, data):
        if kind in (SP, LIN):
            matrix = tuple(tuple(Fraction(v) for v in row) for row in data)
            if any(len(row) != len(matrix) for row in matrix):
                raise WrongArity("matrix generator must be square")
            self.data = matrix
        elif kind in (XSHIFT, PSHIFT):
            index, poly = data
            poly = {int(e): Fraction(c) for e, c in poly.items() if c}
            if any(e < 1 for e in poly):
                raise WeyliftError("shift polynomials need positive exponents")
            self.data = (int(index), poly)
        elif kind == SHIFT:
            index, poly = data
            index = int(index)
            poly = {tuple(int(x) for x in e): Fraction(c) for e, c in poly.items() if c}
            for e in poly:
                if not 0 <= index < len(e):
                    raise IndexOutOfRange(
                        f"generator index {index} outside exponent width {len(e)}"
                    )
                if e[index] != 0:
                    raise WeyliftError(
                        "a shift polynomial cannot involve the shifted generator"
                    )
                if all(x == 0 for x in e):
                    raise WeyliftError("shift polynomials need zero constant term")
            self.data = (index, poly)
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
        if self.kind in (XSHIFT, PSHIFT, SHIFT):
            index, poly = self.data
            return ElementaryGen(
                self.kind, (index, {e: -c for e, c in poly.items()})
            )
        if self.kind == SP:
            omega = omega_matrix_raw(QQ, BracketFlavor(STANDARD, len(self.data) // 2))
            return ElementaryGen(SP, symplectic_inverse(QQ, self.data, omega))
        return ElementaryGen(LIN, mat_inv(QQ, self.data))


class TameWord:
    """kind is "symplectic" or "gl"; n is the number of pairs."""

    __slots__ = ("kind", "n", "gens")

    def __init__(self, kind, n, gens):
        if kind not in ("symplectic", "gl"):
            raise WeyliftError(f"unknown word kind {kind!r}")
        allowed = _SYMPLECTIC_KINDS if kind == "symplectic" else _GL_KINDS
        gens = tuple(gens)
        g = 2 * n
        for gen in gens:
            if gen.kind not in allowed:
                raise WeyliftError(
                    f"{gen.kind} generators are not allowed in a {kind} word"
                )
            if gen.kind in (SP, LIN) and len(gen.data) != g:
                raise WrongArity(f"matrix generator must be {g} x {g}")
            if gen.kind in (XSHIFT, PSHIFT) and not 0 <= gen.data[0] < n:
                raise IndexOutOfRange(f"pair index {gen.data[0]} out of range")
            if gen.kind == SHIFT:
                if not 0 <= gen.data[0] < g:
                    raise IndexOutOfRange(
                        f"generator index {gen.data[0]} out of range"
                    )
                for e in gen.data[1]:
                    if len(e) != g:
                        raise WrongArity("shift exponent tuples must cover all slots")
        self.kind = kind
        self.n = n
        self.gens = gens

    def __len__(self):
        return len(self.gens)

    def __eq__(self, other):
        if not isinstance(other, TameWord):
            return NotImplemented
        return (
            self.kind == other.kind and self.n == other.n and self.gens == other.gens
        )

    def __repr__(self):
        return f"TameWord({self.kind!r}, n={self.n}, len={len(self.gens)})"


def invert_word(word):
    """Reverse the word and invert each generator."""
    return TameWord(word.kind, word.n, [g.inverse() for g in reversed(word.gens)])


def transport(word):
    """Reread a symplectic word on the other side.

    Generator data is side-agnostic (p_i and d_i share a slot), so the
    transported word carries identical data; only evaluate's side
    argument changes what it means.
    """
    if word.kind != "symplectic":
        raise NotSymplectic("only symplectic words move between sides")
    return TameWord(word.kind, word.n, word.gens)


def gen_endo(gen, side, flavor, field):
    """The endomorphism of one elementary generator."""
    cls = element_class(side)
    g = flavor.main_count
    if gen.kind in (SP, LIN):
        matrix = [[field.from_fraction(v) for v in row] for row in gen.data]
        return Endo.linear(side, flavor, field, matrix)
    images = [cls.generator(field, flavor, i) for i in range(g)]
    if gen.kind in (XSHIFT, PSHIFT):
        index, poly = gen.data
        target = index if gen.kind == XSHIFT else flavor.conjugate_index(index)
        var = flavor.conjugate_index(target)
        shift = cls.from_terms(
            field,
            flavor,
            [(flavor.gen_key(var, e), field.from_fraction(c)) for e, c in poly.items()],
        )
        images[target] = images[target] + shift
    else:
        index, poly = gen.data
        terms = []
        for e, c in poly.items():
            key = list(flavor.unit_key())
            for i, x in enumerate(e):
                key[i] = x
            terms.append((tuple(key), field.from_fraction(c)))
        images[index] = images[index] + cls.from_terms(field, flavor, terms)
    return Endo(side, flavor, field, images)


def evaluate(word, side, flavor, field, maxdeg=None, start=None):
    """The endo start . g1 . .. . gk of the word [g1, .., gk], truncated
    above graded degree maxdeg when one is given.

    start defaults to the identity; a start on the same side, flavor and
    field continues its images, so evaluate(word[i:], start=evaluate(
    word[:i])) equals evaluate(word) at every cut i.  The letters are
    read left to right on the images of start . g1 . .. . g(i-1):

    - an sp or lin letter replaces them with linear combinations of
      themselves, with no products;
    - an xshift or pshift letter adds f(image of the conjugate slot) to
      one image, by deg f - 1 products; the other images are shared;
    - a gl shift letter adds its monomials in the current images.

    Every letter fixes h and the k symbols, so their images are those of
    start.  Truncation by graded degree is a ring map on images without
    a constant term, so truncating every product gives the truncation of
    the exact endo.
    """
    if flavor.pairs != word.n:
        raise WrongArity(f"word has {word.n} pairs, flavor has {flavor.pairs}")
    if not flavor.paired:
        raise SideMismatch("tame words act on paired flavors")
    if word.kind == "gl" and side != "P":
        raise SideMismatch("general-linear words act on the commutative side only")
    if start is None:
        start = Endo.identity(side, flavor, field)
    elif start.side != side:
        raise SideMismatch("start acts on the other side")
    elif start.flavor != flavor:
        raise FlavorMismatch("start flavor differs from the evaluation flavor")
    elif start.field != field:
        raise FieldMismatch("start field differs from the evaluation field")
    cls = element_class(side)
    images = start.all_images()
    if maxdeg is None:
        mul = cls.__mul__
    else:
        images = [img.truncate(maxdeg) for img in images]

        def mul(a, b):
            return a.mul_truncated(b, maxdeg)

    g = flavor.main_count
    images, extra = images[:g], images[g:]
    # Over Q and F_p raw values take the plain operators; sum_terms reduces.
    scale = _mul if field.k == 1 else field.mul

    def combine(parts, base=None):
        """base plus the sum of raw coefficient times element over parts."""

        def pairs():
            if base is not None:
                yield from base.terms.items()
            for r, elem in parts:
                for key, c in elem.terms.items():
                    yield key, scale(c, r)

        out = cls(field, flavor)
        out.terms = sum_terms(field, pairs())
        return out

    def univariate(poly, base):
        """(raw coefficient, base^e) for the terms c y^e of poly."""
        parts = []
        elem = base
        for e in range(1, max(poly, default=0) + 1):
            if e > 1:
                elem = mul(elem, base)
                if elem.is_zero:
                    break
            if e in poly:
                parts.append((field.from_fraction(poly[e]), elem))
        return parts

    def monomials(poly):
        """(raw coefficient, product of image powers) for each monomial."""
        powers = [[None, img] for img in images]
        parts = []
        for exps, c in poly.items():
            elem = None
            for slot, e in enumerate(exps):
                if not e:
                    continue
                cache = powers[slot]
                while len(cache) <= e:
                    cache.append(mul(cache[-1], images[slot]))
                elem = cache[e] if elem is None else mul(elem, cache[e])
            parts.append((field.from_fraction(c), elem))
        return parts

    for gen in word.gens:
        if gen.kind in (SP, LIN):
            rows = [[field.from_fraction(v) for v in row] for row in gen.data]
            images = [
                combine([(r, img) for r, img in zip(row, images) if not field.is_zero(r)])
                for row in rows
            ]
            continue
        index, poly = gen.data
        if gen.kind == SHIFT:
            target, parts = index, monomials(poly)
        else:
            target = index if gen.kind == XSHIFT else flavor.conjugate_index(index)
            parts = univariate(poly, images[flavor.conjugate_index(target)])
        images = list(images)
        images[target] = combine(parts, images[target])
    return Endo(
        side,
        flavor,
        field,
        images,
        extra[0] if flavor.has_h else None,
        extra[flavor.k_start - g :] if flavor.has_k else None,
        allow_free_term=True,
    )


def _random_sl2(rng, steps=3):
    a, b, c, d = 1, 0, 0, 1
    for _ in range(steps):
        m = rng.choice([-2, -1, 1, 2])
        if rng.random() < 0.5:
            a, b = a + m * c, b + m * d
        else:
            c, d = c + m * a, d + m * b
    return a, b, c, d


def _embed_sl2(n, i, abcd):
    a, b, c, d = abcd
    g = 2 * n
    out = [[Fraction(int(r == s)) for s in range(g)] for r in range(g)]
    out[i][i], out[i][n + i] = Fraction(a), Fraction(b)
    out[n + i][i], out[n + i][n + i] = Fraction(c), Fraction(d)
    return out


def _pair_swap(n, i, j):
    g = 2 * n
    perm = list(range(g))
    perm[i], perm[j] = perm[j], perm[i]
    perm[n + i], perm[n + j] = perm[n + j], perm[n + i]
    return [
        [Fraction(int(perm[r] == s)) for s in range(g)] for r in range(g)
    ]


def _cross_transvection(n, i, j, m):
    # x_i += m x_j and p_j -= m p_i preserve the pairing.
    g = 2 * n
    out = [[Fraction(int(r == s)) for s in range(g)] for r in range(g)]
    out[i][j] = Fraction(m)
    out[n + j][n + i] = Fraction(-m)
    return out


def random_symplectic_matrix(n, rng, steps=3):
    g = 2 * n
    acc = [[Fraction(int(r == s)) for s in range(g)] for r in range(g)]
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.5 or n == 1:
            factor = _embed_sl2(n, rng.randrange(n), _random_sl2(rng))
        elif roll < 0.75:
            i, j = rng.sample(range(n), 2)
            factor = _pair_swap(n, i, j)
        else:
            i, j = rng.sample(range(n), 2)
            factor = _cross_transvection(n, i, j, rng.choice([-2, -1, 1, 2]))
        acc = mat_mul(QQ, acc, factor)
    return acc


def random_unimodular_matrix(g, rng, steps=4):
    acc = [[Fraction(int(r == s)) for s in range(g)] for r in range(g)]
    for _ in range(steps):
        i, j = rng.sample(range(g), 2)
        m = rng.choice([-2, -1, 1, 2])
        for col in range(g):
            acc[i][col] += m * acc[j][col]
    return acc


def _random_univariate(rng, maxdeg):
    deg = rng.randrange(2, max(3, maxdeg + 1))
    poly = {deg: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))}
    for e in range(2, deg):
        if rng.random() < 0.4:
            poly[e] = Fraction(rng.choice([-2, -1, 1, 2]))
    return poly


def random_tame(n, length, maxdeg, seed, kind="symplectic"):
    """Deterministic pseudo-random word with small integral data."""
    rng = random.Random(seed)
    gens = []
    for _ in range(length):
        roll = rng.random()
        if kind == "symplectic":
            if roll < 0.4:
                gens.append(ElementaryGen(SP, random_symplectic_matrix(n, rng)))
            elif roll < 0.7:
                gens.append(
                    ElementaryGen(XSHIFT, (rng.randrange(n), _random_univariate(rng, maxdeg)))
                )
            else:
                gens.append(
                    ElementaryGen(PSHIFT, (rng.randrange(n), _random_univariate(rng, maxdeg)))
                )
        else:
            if roll < 0.35:
                gens.append(ElementaryGen(LIN, random_unimodular_matrix(2 * n, rng)))
            elif roll < 0.55:
                gens.append(ElementaryGen(SP, random_symplectic_matrix(n, rng)))
            else:
                g = 2 * n
                index = rng.randrange(g)
                others = [i for i in range(g) if i != index]
                poly = {}
                for _ in range(rng.randrange(1, 3)):
                    e = [0] * g
                    total = rng.randrange(1, maxdeg + 1)
                    for _ in range(total):
                        e[rng.choice(others)] += 1
                    poly[tuple(e)] = Fraction(rng.choice([-2, -1, 1, 2]))
                gens.append(ElementaryGen(SHIFT, (index, poly)))
    return TameWord(kind, n, gens)
