"""Normal-ordered Weyl elements for all three bracket flavors.

Every flavor orders its main generators g_1 < .. < g_N and stores the
basis monomials g_1^e_1 .. g_N^e_N.  The bracket of two generators is
central, so the product of two normal-ordered monomials is one
contraction (Wick) formula: for each pair g_j > g_i with
[g_j, g_i] = s z (z a monomial in the central slots, s = +-1), a left
factor g_j^b meets a right factor g_i^c as

    g_j^b . g_i^c = sum_k k! C(b,k) C(c,k) (s z)^k g_i^(c-k) g_j^(b-k),

and the pairs apply one after another.  The flavor supplies the pairs
(BracketFlavor.contractions):

    flavor      pairs (j, i)          z           s
    standard    (d_i, x_i)            1           +1
    haug        (d_i, x_i)            h           +1
    skew        (xi_j, xi_i), i < j   h k_ij      -1

Each product call builds one table keyed by (b, c, s): an entry holds
the weights k! C(b,k) C(c,k) s^k already reduced into the coefficient
field, by descending k, with the weights that are zero in the field left
out.  In characteristic p that drops every contraction of order k >= p,
since k! vanishes, and the orders below p whose binomials vanish by
Lucas's theorem.  A term pair starts from its summed key and is
extended one pair at a time through the table; leaf coefficients are
summed and zero sums swept out once at the end.  With more than one
skew pair a slot is in several pairs, so each leaf carries the
exponents its earlier contractions left free.

Over Q and over a prime field F_p the kernel multiplies and adds the
raw values with the plain operators instead of going through Field.
Over F_p the products and sums are then unreduced ints, and each sum is
reduced mod p once, in the final zero sweep.  Extensions F_{p^k}, k > 1,
keep Field.mul and Field.add.

Powers multiply by the base again and again rather than square: the
right factor stays the short input, so each contraction order is capped
by its degree, and a p-th power does fewer term products in all than by
repeated squaring (Fateman, Stud. Appl. Math. 53, 1974).
"""

from __future__ import annotations

from operator import add as _add, mul as _mul

from .elements import SparseElement
from .errors import (
    NotCentral,
    NotInPthPowerForm,
    PositiveCharacteristic,
    WeyliftError,
)
from .flavors import HAUG, SKEW, Grading
from .poly import Poly, structure_element


class WeylElt(SparseElement):
    """Element of the Weyl algebra in normal-ordered coordinates."""

    __slots__ = ()

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(self.field.from_int(other))
        self._check_compatible(other)
        return _ordered_mul(self, other, None, None)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(self.field.from_int(other))
        return NotImplemented

    def mul_truncated(self, other, maxdeg, grading=None):
        """Graded-truncated product; needs a weight the reordering preserves."""
        self._check_compatible(other)
        g = grading or Grading.default_for(self.flavor)
        _require_graded(self.flavor, g)
        return _ordered_mul(self, other, maxdeg, g)


def _require_graded(flavor, grading):
    if flavor.kind == HAUG:
        ok = grading.h == 2 * grading.main
    elif flavor.kind == SKEW:
        ok = grading.h == 0 and grading.k == 2 * grading.main
    else:
        ok = False
    if not ok:
        raise WeyliftError(
            "truncated Weyl products need the reordering-invariant grading"
        )


def _contraction_weights(field, b_exp, c_exp, sign):
    """Nonzero k! C(b,k) C(c,k) sign^k in the field, as (k, weight) by descending k.

    In characteristic p every k >= p is dropped (k! vanishes), and so is
    every k whose binomials vanish by Lucas's theorem.
    """
    top = min(b_exp, c_exp)
    if field.char:
        top = min(top, field.char - 1)
    entry = [(0, field.one())]
    w = 1
    for k in range(1, top + 1):
        w = sign * w * (b_exp - k + 1) * (c_exp - k + 1) // k
        wk = field.from_int(w)
        if not field.is_zero(wk):
            entry.append((k, wk))
    entry.reverse()
    return tuple(entry)


def _minus(exps, slot, k):
    return exps[:slot] + (exps[slot] - k,) + exps[slot + 1 :]


class _WeightTable(dict):
    """(b, c, sign) -> _contraction_weights, filled on first use."""

    __slots__ = ("field",)

    def __init__(self, field):
        self.field = field

    def __missing__(self, key):
        entry = self[key] = _contraction_weights(self.field, *key)
        return entry


def _ordered_mul(a: WeylElt, b: WeylElt, maxdeg, grading):
    flavor, field = a.flavor, a.field
    # Over Q and F_p the raw values take the plain operators; F_p sums are
    # reduced once, below.
    plain = field.k == 1
    add, mul = (_add, _mul) if plain else (field.add, field.mul)
    pairs = flavor.contractions
    # Skew pairs share slots once there is more than one of them; then each
    # leaf tracks the exponents its contractions left free.  Otherwise they
    # are those of k1 and k2.
    shared = flavor.has_k and len(pairs) > 1
    truncated = maxdeg is not None
    right = [
        (k2, c2, grading.weight(flavor, k2) if truncated else 0)
        for k2, c2 in b.terms.items()
    ]
    table = _WeightTable(field)
    terms = {}
    for k1, c1 in a.terms.items():
        room = maxdeg - grading.weight(flavor, k1) if truncated else 0
        if room < 0:
            continue
        for k2, c2, w2 in right:
            if w2 > room:
                continue
            # A leaf is (key, coefficient, free exponents of k1, of k2).
            leaves = [(list(map(_add, k1, k2)), mul(c1, c2), k1, k2)]
            # Contract g_j of the left factor against g_i of the right one.
            for j, i, central, sign in pairs:
                if not (k1[j] and k2[i]):
                    continue
                # Unshared, one entry serves every leaf.
                entry = None if shared else table[k1[j], k2[i], sign]
                grown = []
                for leaf in leaves:
                    key, c, free1, free2 = leaf
                    for k, w in entry or table[free1[j], free2[i], sign]:
                        if not k:
                            grown.append(leaf)
                            continue
                        key_k = key.copy()
                        key_k[j] -= k
                        key_k[i] -= k
                        for slot in central:
                            key_k[slot] += k
                        if shared:
                            grown.append(
                                (key_k, mul(c, w), _minus(free1, j, k), _minus(free2, i, k))
                            )
                        else:
                            grown.append((key_k, mul(c, w), free1, free2))
                leaves = grown
            for key, c, _, _ in leaves:
                key = tuple(key)
                prev = terms.get(key)
                terms[key] = c if prev is None else add(prev, c)
    out = WeylElt(field, flavor)
    p = field.char
    if plain and p:
        out.terms = {key: r for key, c in terms.items() if (r := c % p)}
    else:
        zero = field.zero()
        out.terms = {key: c for key, c in terms.items() if c != zero}
    return out


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


def weyl_structure(flavor, field, i, j) -> WeylElt:
    """[g_i, g_j] as a normal-ordered element."""
    return structure_element(flavor, field, i, j, cls=WeylElt)
