"""Commutative sparse polynomials with the flavor's Poisson bracket."""

from __future__ import annotations

from .elements import SparseElement, ordered_mul
from .errors import IndexOutOfRange, PositiveCharacteristic, WeyliftError
from .flavors import STANDARD, BracketFlavor, Grading


class Poly(SparseElement):
    """Element of the commutative algebra underlying a bracket flavor."""

    __slots__ = ()

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(self.field.from_int(other))
        self._check_compatible(other)
        return ordered_mul(self, other, (), None, None)

    __rmul__ = __mul__

    def mul_truncated(self, other, maxdeg, grading=None):
        """Product with terms of weighted degree above maxdeg dropped."""
        self._check_compatible(other)
        g = grading or Grading.default_for(self.flavor)
        return ordered_mul(self, other, (), maxdeg, g)

    def partial(self, i: int) -> "Poly":
        """Formal partial derivative in the i-th main generator."""
        flavor = self.flavor
        if not 0 <= i < flavor.main_count:
            raise IndexOutOfRange(f"no main generator {i}")
        field = self.field
        # e -> e - 1 in one slot is injective, so no two terms meet.
        terms = {
            key[:i] + (e - 1,) + key[i + 1 :]: field.mul(c, field.from_int(e))
            for key, c in self.terms.items()
            if (e := key[i])
        }
        return Poly(field, flavor, terms)


def _central_element(cls, flavor, field, central, sign):
    """sign times the monomial of the central slots, as an element."""
    key = [0] * flavor.key_len
    for slot in central:
        key[slot] = 1
    return cls(field, flavor, {tuple(key): field.from_int(sign)})


def structure_element(flavor: BracketFlavor, field, i: int, j: int, cls=Poly):
    """The bracket (or commutator) of generators i and j as an element,
    read off the flavor's contraction pairs."""
    for a, b, central, sign in flavor.contractions:
        if (a, b) in ((i, j), (j, i)):
            return _central_element(
                cls, flavor, field, central, sign if a == i else -sign
            )
    return cls.zero(field, flavor)


def poisson_bracket(f: Poly, g: Poly) -> Poly:
    """{f, g} by the Leibniz rule from the flavor's contraction pairs.

    Each pair (j, i) with {g_j, g_i} = s z adds
    s z (d_j f d_i g - d_i f d_j g); no other pair of generators has a
    nonzero bracket.
    """
    f._check_compatible(g)
    flavor, field = f.flavor, f.field
    df = [f.partial(s) for s in range(flavor.main_count)]
    dg = [g.partial(s) for s in range(flavor.main_count)]
    result = Poly.zero(field, flavor)
    for j, i, central, sign in flavor.contractions:
        term = df[j] * dg[i] - df[i] * dg[j]
        if not term.is_zero:
            z = _central_element(Poly, flavor, field, central, sign)
            result = result + z * term
    return result


def jacobian(images) -> Poly:
    """Determinant of the partial-derivative matrix of a full image list."""
    if not images:
        raise WeyliftError("empty image list")
    first = images[0]
    flavor, field = first.flavor, first.field
    if flavor.kind != STANDARD:
        raise WeyliftError("jacobian is defined over the standard flavor")
    if field.char != 0:
        raise PositiveCharacteristic("jacobian determinant needs characteristic zero")
    g = flavor.main_count
    if len(images) != g:
        raise WeyliftError(f"need {g} images, got {len(images)}")
    rows = [[img.partial(j) for j in range(g)] for img in images]

    # Expansion along the first remaining row, memoized on column subsets.
    memo = {}

    def minor(row: int, cols: tuple) -> Poly:
        if row == g:
            return Poly.one(field, flavor)
        cached = memo.get((row, cols))
        if cached is not None:
            return cached
        acc = Poly.zero(field, flavor)
        for pos, j in enumerate(cols):
            entry = rows[row][j]
            if entry.is_zero:
                continue
            sub = minor(row + 1, cols[:pos] + cols[pos + 1 :])
            term = entry * sub
            acc = acc + term if pos % 2 == 0 else acc - term
        memo[(row, cols)] = acc
        return acc

    return minor(0, tuple(range(g)))
