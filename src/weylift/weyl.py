"""Normal-ordered Weyl elements for all three bracket flavors.

Products go through elements.ordered_mul with the flavor's contraction
pairs; a commutator keeps only the contracted terms of its two products,
since their commutative parts cancel (weyl_commutator).  Powers multiply
by the base again and again rather than square: the right factor stays
the short input, so each contraction order is capped by its degree, and
a p-th power does fewer term products in all than by repeated squaring
(Fateman, Stud. Appl. Math. 53, 1974).

Over F_p, p-th powers take a closed form where Jacobson's formula
(a + b)^p = a^p + b^p + sum_i s_i(a, b) collapses (Jacobson, Lie
Algebras, 1962, ch. V): split a = l + F into its terms of main degree 1
and the rest.  When F lies in a commutative algebra that ad(l) keeps,
every s_i but one vanishes, and a^p is the sum of the p-th powers of the
terms of a plus ad(l)^(p-1)(F).  Since l has main degree 1, ad(l) is a
derivation that replaces one generator by a central element: each of
its p - 1 steps is one pass over the term pairs (elements.leibniz_bracket)
instead of the two products G l and l G, whose contraction-free halves
cancel.  This covers every image of a shift or linear letter.
The p-th powers of the paired generators are central; this module also
reads central elements in their p-th power coordinates.

On paired flavors an element is central exactly when every main exponent
of every term is 0 in the field: each slot has one contraction partner,
so [x^A d^B h^c, x_i] = B_i x^A d^(B - e_i) h^c (times h on haug), and
the commutators of distinct terms are distinct monomials.  Skew slots
share partners, so commutators of terms can cancel (k12 g0 - k02 g1 +
k01 g2 commutes with g0, g1, g2), and is_central refuses skew elements.
"""

from __future__ import annotations

from .elements import (
    SparseElement,
    guard_expansion,
    leibniz_bracket,
    ordered_mul,
    sum_terms,
)
from .errors import (
    NotCentral,
    PositiveCharacteristic,
    WeyliftError,
)
from .flavors import STANDARD
from .poly import Poly


class WeylElt(SparseElement):
    """Element of the Weyl algebra in normal-ordered coordinates."""

    __slots__ = ()

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(self.field.from_int(other))
        self._check_compatible(other)
        return ordered_mul(self, other, self.flavor.contractions, None)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(self.field.from_int(other))
        return NotImplemented

    def mul_truncated(self, other, maxdeg):
        """Graded-truncated product.  On haug and skew every bracket is
        homogeneous in the flavor's weights, so reordering keeps the graded
        degree; the standard flavor's [d_i, x_i] = 1 lowers it by 2 and is
        refused."""
        self._check_compatible(other)
        _check_truncatable(self.flavor)
        return ordered_mul(self, other, self.flavor.contractions, maxdeg)


def _check_truncatable(flavor):
    if flavor.kind == STANDARD:
        raise WeyliftError("truncated Weyl products need the reordering-invariant grading")


def weyl_commutator(a: WeylElt, b: WeylElt, maxdeg=None) -> WeylElt:
    """a b - b a, with the terms of graded degree above maxdeg dropped
    unless maxdeg is None (haug and skew only, as in mul_truncated).

    The terms that no contraction made are the commutative product, equal
    in a b and b a, so each product keeps only its contracted terms
    (ordered_mul with contracted_only) and the two are subtracted.
    """
    a._check_compatible(b)
    if maxdeg is not None:
        _check_truncatable(a.flavor)
    pairs = a.flavor.contractions
    return ordered_mul(a, b, pairs, maxdeg, True) - ordered_mul(b, a, pairs, maxdeg, True)


def pth_power(a: WeylElt) -> WeylElt:
    """a^p in the residue characteristic p, guarded by EXPANSION_BOUND.

    For p >= 3, let l be the terms of a of main degree 1, F the rest, and
    S the main slots that occur in F.  When no contraction pair has both
    of its slots in S, F lies in a commutative algebra that the central
    slots extend and ad(l) keeps, so every nested commutator of Jacobson's
    formula vanishes but ad(l)^(p-1)(F):

        a^p = sum over the terms c m of a of c^p m^p + D^(p-1)(F),

    with D(G) = G l - l G, which for odd p has the same (p-1)-th power as
    ad(l).  D is the derivation that the contraction pairs give by the
    Leibniz rule, so each step is one elements.leibniz_bracket pass over
    the term pairs of G and l.  Every other element, and p = 2, goes to
    bounded_power.
    """
    p = a.field.char
    if p == 0:
        raise PositiveCharacteristic("pth_power needs a finite field")
    closed = _jacobson_power(a, p) if p > 2 else None
    return bounded_power(a, p) if closed is None else closed


def _jacobson_power(a: WeylElt, p: int):
    """The closed form of pth_power, or None outside its class."""
    field, flavor = a.field, a.flavor
    g = flavor.main_count
    linear, rest = {}, {}
    for key, c in a.terms.items():
        (linear if sum(key[:g]) == 1 else rest)[key] = c
    slots = {i for key in rest for i in range(g) if key[i]}
    if any(j in slots and i in slots for j, i, _, _ in flavor.contractions):
        return None
    ell = WeylElt(field, flavor)
    ell.terms = linear
    acc = WeylElt(field, flavor)
    acc.terms = rest
    for _ in range(p - 1):
        acc = leibniz_bracket(acc, ell, flavor.contractions)
        if not acc.terms:
            break
    powers = [
        (tuple(e * p for e in key), field.frobenius(c)) for key, c in a.terms.items()
    ]
    out = WeylElt(field, flavor)
    out.terms = sum_terms(field, [*powers, *acc.terms.items()])
    return guard_expansion(out)


#: a^e guarded by EXPANSION_BOUND: the one guarded power routine.
bounded_power = SparseElement.__pow__


def is_central(a: WeylElt) -> bool:
    """True when a commutes with every main generator, read off the main
    exponents (paired flavors only; see the module docstring)."""
    p, g = a.field.char, a.flavor.main_count
    if not a.flavor.paired:
        raise WeyliftError("center coordinates are defined for paired flavors")
    return not any(e % p if p else e for key in a.terms for e in key[:g])


def center_coordinates(a: WeylElt) -> Poly:
    """Read a central element in the coordinates z_i = x_i^p, w_i = d_i^p.

    The h exponent (if present) and the t exponent pass through unchanged;
    is_central has shown that every main exponent is divisible by p.
    """
    field, flavor = a.field, a.flavor
    p = field.char
    if p == 0:
        raise PositiveCharacteristic("center coordinates need a finite field")
    # center_flavor (or is_central) refuses skew flavors.
    if not is_central(a):
        raise NotCentral("element does not commute with the generators")
    target = flavor.center_flavor()
    g = flavor.main_count
    out = Poly(field, target)
    out.terms = {
        tuple(e // p for e in key[:g]) + key[g:]: c for key, c in a.terms.items()
    }
    return out


def from_center_coordinates(c: Poly, flavor, p=None) -> WeylElt:
    """Inverse of center_coordinates: z^A w^B h^c goes to x^(pA) d^(pB) h^c."""
    field = c.field
    p = field.char if p is None else p
    if p == 0:
        raise PositiveCharacteristic("center coordinates need a prime")
    g = flavor.main_count
    out = WeylElt(field, flavor)
    out.terms = {
        tuple(e * p for e in key[:g]) + key[g:]: coeff for key, coeff in c.terms.items()
    }
    return out
