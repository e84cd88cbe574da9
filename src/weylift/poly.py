"""Commutative sparse polynomials with the flavor's Poisson bracket."""

from __future__ import annotations

from .elements import SparseElement, leibniz_bracket, ordered_mul
from .errors import IndexOutOfRange
from .flavors import BracketFlavor


class Poly(SparseElement):
    """Element of the commutative algebra underlying a bracket flavor."""

    __slots__ = ()

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(self.field.from_int(other))
        self._check_compatible(other)
        return ordered_mul(self, other, (), None)

    __rmul__ = __mul__

    def mul_truncated(self, other, maxdeg):
        """Product with terms of graded degree above maxdeg dropped."""
        self._check_compatible(other)
        return ordered_mul(self, other, (), maxdeg)

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


def structure_element(flavor: BracketFlavor, field, i: int, j: int, cls=Poly):
    """The bracket (or commutator) of generators i and j as an element,
    read off the flavor's contraction pairs: sign times the monomial of
    the central slots."""
    for a, b, central, sign in flavor.contractions:
        if (a, b) in ((i, j), (j, i)):
            key = [0] * flavor.key_len
            for slot in central:
                key[slot] = 1
            raw = field.from_int(sign if a == i else -sign)
            return cls(field, flavor, {tuple(key): raw})
    return cls.zero(field, flavor)


def poisson_bracket(f: Poly, g: Poly) -> Poly:
    """{f, g} by the Leibniz rule from the flavor's contraction pairs, in
    one pass over the term pairs (elements.leibniz_bracket).

    Each pair (j, i) with {g_j, g_i} = s z adds
    s z (d_j f d_i g - d_i f d_j g); no other pair of generators has a
    nonzero bracket.
    """
    f._check_compatible(g)
    return leibniz_bracket(f, g, f.flavor.contractions)
