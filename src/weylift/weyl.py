"""Normal-ordered Weyl elements for all three bracket flavors.

The basis for paired flavors is x^K d^L (every x left of every d) with
relations [d_i, x_j] = delta_ij (standard) or h delta_ij (h-augmented).
Products use the closed reordering formula

    d^b x^c = sum_k k! C(b,k) C(c,k) mu^k x^(c-k) d^(b-k),   mu in {1, h},

applied independently per index, which is valid because generators with
distinct indices commute.  Each product call builds one table keyed by
the exponent pair (b, c): an entry holds the weights k! C(b,k) C(c,k)
already reduced into the coefficient field, by descending k, with the
weights that are zero in the field left out.  In characteristic p that
drops every contraction of order k >= p, since k! vanishes, and the
orders below p whose binomials vanish by Lucas's theorem.  A term pair
starts from its summed key and is extended one index at a time through
the table; leaf coefficients are summed and zero sums swept out once at
the end.  The table lives only for the call.

The skew flavor has no closed form here; products move one generator at
a time through the normal form using xi_j xi_i = xi_i xi_j - h k_ij
(i < j), whose corrections are central.
"""

from __future__ import annotations

from operator import add as _add_int

from .elements import SparseElement
from .errors import (
    ExpansionBoundExceeded,
    NotCentral,
    NotInPthPowerForm,
    PositiveCharacteristic,
    WeyliftError,
)
from .flavors import HAUG, SKEW, Grading
from .poly import Poly, structure_element

#: Default cap on intermediate term counts in repeated products.
EXPANSION_BOUND = 200_000


class WeylElt(SparseElement):
    """Element of the Weyl algebra in normal-ordered coordinates."""

    __slots__ = ()

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(self.field.from_int(other))
        self._check_compatible(other)
        if self.flavor.kind == SKEW:
            return _skew_mul(self, other, None, None)
        return _paired_mul(self, other, None, None)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(self.field.from_int(other))
        return NotImplemented

    def mul_truncated(self, other, maxdeg, grading=None):
        """Graded-truncated product; needs a weight the reordering preserves."""
        self._check_compatible(other)
        g = grading or Grading.default_for(self.flavor)
        _require_graded(self.flavor, g)
        if self.flavor.kind == SKEW:
            return _skew_mul(self, other, maxdeg, g)
        return _paired_mul(self, other, maxdeg, g)


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


def _contraction_weights(field, b_exp, c_exp):
    """Nonzero k! C(b,k) C(c,k) in the field, as (k, weight) by descending k.

    In characteristic p every k >= p is dropped (k! vanishes), and so is
    every k whose binomials vanish by Lucas's theorem.
    """
    top = min(b_exp, c_exp)
    if field.char:
        top = min(top, field.char - 1)
    entry = [(0, field.one())]
    w = 1
    for k in range(1, top + 1):
        w = w * (b_exp - k + 1) * (c_exp - k + 1) // k
        wk = field.from_int(w)
        if not field.is_zero(wk):
            entry.append((k, wk))
    entry.reverse()
    return tuple(entry)


def _paired_mul(a: WeylElt, b: WeylElt, maxdeg, grading):
    flavor, field = a.flavor, a.field
    add, mul = field.add, field.mul
    m = flavor.pairs
    h_slot = flavor.h_slot if flavor.kind == HAUG else None
    truncated = maxdeg is not None
    right = [
        (k2, c2, grading.weight(flavor, k2) if truncated else 0)
        for k2, c2 in b.terms.items()
    ]
    table = {}
    terms = {}
    for k1, c1 in a.terms.items():
        room = maxdeg - grading.weight(flavor, k1) if truncated else 0
        if room < 0:
            continue
        for k2, c2, w2 in right:
            if w2 > room:
                continue
            leaves = [(list(map(_add_int, k1, k2)), mul(c1, c2))]
            # Contract the d-block of k1 against the x-block of k2.
            for i in range(m):
                b_exp, c_exp = k1[m + i], k2[i]
                if not (b_exp and c_exp):
                    continue
                entry = table.get((b_exp, c_exp))
                if entry is None:
                    entry = table[b_exp, c_exp] = _contraction_weights(field, b_exp, c_exp)
                grown = []
                for key, c in leaves:
                    for k, w in entry:
                        if k:
                            key_k = key.copy()
                            key_k[i] -= k
                            key_k[m + i] -= k
                            if h_slot is not None:
                                key_k[h_slot] += k
                            grown.append((key_k, mul(c, w)))
                        else:
                            grown.append((key, c))
                leaves = grown
            for key, c in leaves:
                key = tuple(key)
                prev = terms.get(key)
                terms[key] = c if prev is None else add(prev, c)
    zero = field.zero()
    out = WeylElt(field, flavor)
    out.terms = {key: c for key, c in terms.items() if c != zero}
    return out


def _skew_times_gen(elt: WeylElt, i: int) -> WeylElt:
    """Right-multiply a normal form by generator i.

    xi^C xi_i = xi^(C + e_i) - h * sum_{j > i, C_j > 0} C_j k_ij xi^(C - e_j).
    """
    flavor, field = elt.flavor, elt.field
    add, mul, is_zero, from_int = field.add, field.mul, field.is_zero, field.from_int
    g = flavor.main_count
    h_slot = flavor.h_slot
    terms = {}

    def put(key, c):
        if key in terms:
            c = add(terms[key], c)
        if is_zero(c):
            terms.pop(key, None)
        else:
            terms[key] = c

    for key, c in elt.terms.items():
        put(key[:i] + (key[i] + 1,) + key[i + 1 :], c)
        for j in range(i + 1, g):
            e = key[j]
            if e == 0:
                continue
            k_slot = flavor.k_slot(i, j)
            new_key = list(key)
            new_key[j] -= 1
            new_key[h_slot] += 1
            new_key[k_slot] += 1
            put(tuple(new_key), mul(c, from_int(-e)))
    out = WeylElt(field, flavor)
    out.terms = terms
    return out


def _skew_mul(a: WeylElt, b: WeylElt, maxdeg, grading):
    flavor, field = a.flavor, a.field
    g = flavor.main_count
    out = WeylElt.zero(field, flavor)
    for keyB, cB in b.terms.items():
        part = a
        if maxdeg is not None:
            wB = grading.weight(flavor, keyB)
            part = part.truncate(maxdeg - wB, grading)
        for i in range(g):
            for _ in range(keyB[i]):
                part = _skew_times_gen(part, i)
        central = (0,) * g + keyB[g:]
        shifted = WeylElt(field, flavor)
        shifted.terms = {
            tuple(x + y for x, y in zip(k, central)): field.mul(c, cB)
            for k, c in part.terms.items()
        }
        out = out + shifted
    if maxdeg is not None:
        out = out.truncate(maxdeg, grading)
    return out


def weyl_commutator(a: WeylElt, b: WeylElt) -> WeylElt:
    return a * b - b * a


def pth_power(a: WeylElt, bound: int | None = None) -> WeylElt:
    """a^p in the residue characteristic, guarded by a term-count bound."""
    p = a.field.char
    if p == 0:
        raise PositiveCharacteristic("pth_power needs a finite field")
    return bounded_power(a, p, bound)


def bounded_power(a: WeylElt, e: int, bound: int | None = None) -> WeylElt:
    limit = EXPANSION_BOUND if bound is None else bound

    def guard(x):
        if x.num_terms() > limit:
            raise ExpansionBoundExceeded(
                f"intermediate expansion hit {x.num_terms()} terms (bound {limit})"
            )
        return x

    acc = WeylElt.one(a.field, a.flavor)
    base = a
    while e:
        if e & 1:
            acc = guard(acc * base)
        e >>= 1
        if e:
            base = guard(base * base)
    return acc


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
