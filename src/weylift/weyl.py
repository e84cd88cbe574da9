"""Normal-ordered Weyl elements for all three bracket flavors.

Products go through elements.ordered_mul with the flavor's contraction
pairs.  Powers multiply by the base again and again rather than square:
the right factor stays the short input, so each contraction order is
capped by its degree, and a p-th power does fewer term products in all
than by repeated squaring (Fateman, Stud. Appl. Math. 53, 1974).  Over
F_p the p-th powers of the paired generators are central; this module
also reads central elements in their p-th power coordinates.
"""

from __future__ import annotations

from .elements import SparseElement, ordered_mul
from .errors import (
    NotCentral,
    NotInPthPowerForm,
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
        if self.flavor.kind == STANDARD:
            raise WeyliftError(
                "truncated Weyl products need the reordering-invariant grading"
            )
        return ordered_mul(self, other, self.flavor.contractions, maxdeg)


def weyl_commutator(a: WeylElt, b: WeylElt) -> WeylElt:
    return a * b - b * a


def pth_power(a: WeylElt, bound: int | None = None) -> WeylElt:
    """a^p in the residue characteristic, guarded by a term-count bound.

    Computed by bounded_power: p products with a on the right.
    """
    p = a.field.char
    if p == 0:
        raise PositiveCharacteristic("pth_power needs a finite field")
    return bounded_power(a, p, bound)


#: a^e with an optional term bound: the one guarded power routine.
bounded_power = SparseElement.__pow__


def is_central(a: WeylElt) -> bool:
    """True when a commutes with every main generator."""
    flavor = a.flavor
    for i in range(flavor.main_count):
        gen = WeylElt.generator(a.field, flavor, i)
        if not (a * gen - gen * a).is_zero:
            return False
    return True


def center_coordinates(a: WeylElt, check: bool = True) -> Poly:
    """Read a central element in the coordinates z_i = x_i^p, w_i = d_i^p.

    The h exponent (if present) and the t exponent pass through unchanged;
    main exponents must all be divisible by p.
    """
    field, flavor = a.field, a.flavor
    p = field.char
    if p == 0:
        raise PositiveCharacteristic("center coordinates need a finite field")
    if not flavor.paired:
        raise WeyliftError("center coordinates are defined for paired flavors")
    if check and not is_central(a):
        raise NotCentral("element does not commute with the generators")
    target = flavor.center_flavor()
    g = flavor.main_count
    terms = {}
    for key, c in a.terms.items():
        main = key[:g]
        if any(e % p for e in main):
            raise NotInPthPowerForm(f"exponents {main} are not all divisible by {p}")
        terms[tuple(e // p for e in main) + key[g:]] = c
    out = Poly(field, target)
    out.terms = terms
    return out


def from_center_coordinates(c: Poly, flavor, p=None, cls=WeylElt) -> WeylElt:
    """Inverse of center_coordinates: z^A w^B h^c goes to x^(pA) d^(pB) h^c."""
    field = c.field
    p = field.char if p is None else p
    if p == 0:
        raise PositiveCharacteristic("center coordinates need a prime")
    g = flavor.main_count
    out = cls(field, flavor)
    out.terms = {
        tuple(e * p for e in key[:g]) + key[g:]: coeff for key, coeff in c.terms.items()
    }
    return out
