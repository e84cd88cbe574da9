"""Commutative sparse polynomials with the flavor's Poisson bracket."""

from __future__ import annotations

from .elements import SparseElement, leibniz_bracket, ordered_mul
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
