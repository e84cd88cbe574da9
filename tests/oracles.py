"""Independent reference implementations used to cross-check the library.

The normal-ordering oracle works on raw generator words with the
one-step rewrite rules only, so it shares no code with the closed-form
reordering in the package.  The commutative oracles go through sympy.
The word oracle composes one endo per letter, rightmost first.
"""

from fractions import Fraction

import sympy

from weylift import BracketFlavor, Endo, Poly, QQ, WeylElt
from weylift.flavors import HAUG, SKEW, STANDARD
from weylift.tame import gen_endo


# ---------------------------------------------------------- word rewriting

def _letter_rank(flavor, letter):
    kind, i = letter
    if kind == "x":
        return i
    return flavor.main_count // 2 + i if flavor.paired else i


def naive_normal_order(flavor, words):
    """Normal-order a coefficient dict over raw generator words.

    words: {(letters tuple, h_exp, k_tuple): Fraction}
    letters: ("x", i) / ("d", i) for paired flavors, ("xi", i) for skew.
    Returns the same shape with all words in normal order.
    """
    n_k = len(flavor.k_pairs)
    k_index = {pair: idx for idx, pair in enumerate(flavor.k_pairs)}
    pending = dict(words)
    done = {}
    while pending:
        (letters, h_e, k_vec), coeff = pending.popitem()
        if coeff == 0:
            continue
        for t in range(len(letters) - 1):
            a, b = letters[t], letters[t + 1]
            if _letter_rank(flavor, a) <= _letter_rank(flavor, b):
                continue
            swapped = letters[:t] + (b, a) + letters[t + 2 :]
            if flavor.paired and a[0] == "d" and b[0] == "x" and a[1] == b[1]:
                # d x = x d + 1 (or + h)
                contracted = letters[:t] + letters[t + 2 :]
                ch = h_e + (1 if flavor.kind == HAUG else 0)
                key2 = (contracted, ch, k_vec)
                pending[key2] = pending.get(key2, Fraction(0)) + coeff
            elif not flavor.paired:
                # xi_j xi_i = xi_i xi_j - h k_ij for i < j
                i, j = b[1], a[1]
                contracted = letters[:t] + letters[t + 2 :]
                kv = list(k_vec)
                kv[k_index[(i, j)]] += 1
                key2 = (contracted, h_e + 1, tuple(kv))
                pending[key2] = pending.get(key2, Fraction(0)) - coeff
            key1 = (swapped, h_e, k_vec)
            pending[key1] = pending.get(key1, Fraction(0)) + coeff
            break
        else:
            key = (letters, h_e, k_vec)
            done[key] = done.get(key, Fraction(0)) + coeff
    return {k: v for k, v in done.items() if v != 0}


def word_mul(flavor, a, b):
    """Concatenate two word dicts and normal-order the result."""
    out = {}
    for (la, ha, ka), ca in a.items():
        for (lb, hb, kb), cb in b.items():
            kv = tuple(x + y for x, y in zip(ka, kb)) if ka else ()
            key = (la + lb, ha + hb, kv)
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return naive_normal_order(flavor, out)


def words_from_weyl(elem):
    """Raw word dict of a normal-ordered element (exact round trip)."""
    flavor = elem.flavor
    out = {}
    for key, coeff in elem.terms.items():
        letters = []
        if flavor.paired:
            m = flavor.pairs
            for i in range(m):
                letters += [("x", i)] * key[i]
            for i in range(m):
                letters += [("d", i)] * key[m + i]
        else:
            for i in range(flavor.main_count):
                letters += [("xi", i)] * key[i]
        h_e = key[flavor.h_slot] if flavor.has_h else 0
        k_vec = tuple(flavor.k_exponents(key)) if flavor.has_k else ()
        out[(tuple(letters), h_e, k_vec)] = Fraction(coeff)
    return out


def weyl_from_words(field, flavor, words):
    out = WeylElt(field, flavor)
    terms = {}
    for (letters, h_e, k_vec), coeff in words.items():
        key = [0] * flavor.key_len
        for kind, i in letters:
            slot = i if kind in ("x", "xi") else flavor.pairs + i
            key[slot] += 1
        if flavor.has_h:
            key[flavor.h_slot] = h_e
        for idx, e in enumerate(k_vec):
            key[flavor.k_start + idx] = e
        key = tuple(key)
        raw = field.from_fraction(coeff)
        prev = terms.get(key)
        terms[key] = raw if prev is None else field.add(prev, raw)
    out.terms = {k: v for k, v in terms.items() if not field.is_zero(v)}
    return out


def oracle_mul(a, b):
    """Weyl product through the rewriting oracle.

    The rewriting runs over Q and reduces into the field at the end.  Over
    F_{p^k} with k > 1 the coefficients are not rationals, so each pair of
    terms is rewritten as a product of unit monomials and scaled by the
    product of its coefficients in the field.
    """
    flavor, field = a.flavor, a.field
    if field.k == 1:
        words = word_mul(flavor, words_from_weyl(a), words_from_weyl(b))
        return weyl_from_words(field, flavor, words)
    out = WeylElt(field, flavor)
    for key_a, c_a in a.terms.items():
        for key_b, c_b in b.terms.items():
            unit = oracle_mul(
                WeylElt(QQ, flavor, {key_a: Fraction(1)}),
                WeylElt(QQ, flavor, {key_b: Fraction(1)}),
            )
            c = field.mul(c_a, c_b)
            out = out + WeylElt(field, flavor, {
                key: field.mul(c, field.from_fraction(q)) for key, q in unit.terms.items()
            })
    return out


def oracle_power(elem, e):
    acc = None
    for _ in range(e):
        acc = elem if acc is None else oracle_mul(acc, elem)
    return acc


def oracle_binary_power(elem, e):
    """elem^e by square-and-multiply through the library product.

    A different order of products than bounded_power, which multiplies by
    elem again and again; it reaches primes where oracle_power is too slow.
    """
    acc = WeylElt.one(elem.field, elem.flavor)
    base = elem
    while e:
        if e & 1:
            acc = acc * base
        e >>= 1
        if e:
            base = base * base
    return acc


def oracle_commutative_mul(a, b, maxdeg=None):
    """Commutative product term pair by term pair, through Field.mul and
    Field.add, with the terms of graded degree above maxdeg dropped
    unless maxdeg is None.

    Every sum is reduced as it is taken, so it shares neither the product
    kernel nor its deferred reduction.
    """
    flavor, field = a.flavor, a.field
    terms = {}
    for k1, c1 in a.terms.items():
        for k2, c2 in b.terms.items():
            key = tuple(x + y for x, y in zip(k1, k2))
            if maxdeg is not None and flavor.weight(key) > maxdeg:
                continue
            c = field.mul(c1, c2)
            terms[key] = field.add(terms[key], c) if key in terms else c
    out = Poly(field, flavor)
    out.terms = {k: c for k, c in terms.items() if not field.is_zero(c)}
    return out


# ------------------------------------------------------------ sympy bridge

def sympy_symbols(flavor, side="P"):
    names = flavor.gen_names(side)
    extra = []
    if flavor.has_h:
        extra.append("h")
    extra += [f"k{i + 1}_{j + 1}" for i, j in flavor.k_pairs]
    extra.append("t")
    return sympy.symbols(names + extra)


def poly_to_sympy(elem, syms):
    flavor = elem.flavor
    expr = sympy.Integer(0)
    for key, coeff in elem.terms.items():
        term = sympy.Rational(Fraction(coeff))
        for s, e in zip(syms, key):
            if e:
                term *= s**e
        expr += term
    return sympy.expand(expr)


def sympy_poisson(a, b, syms):
    """Standard bracket via partial derivatives, times h for haug."""
    flavor = a.flavor
    m = flavor.pairs
    ea, eb = poly_to_sympy(a, syms), poly_to_sympy(b, syms)
    out = sympy.Integer(0)
    for i in range(m):
        out += sympy.diff(ea, syms[m + i]) * sympy.diff(eb, syms[i])
        out -= sympy.diff(ea, syms[i]) * sympy.diff(eb, syms[m + i])
    if flavor.kind == HAUG:
        out *= syms[flavor.h_slot]
    return sympy.expand(out)


def sympy_jacobian(images, syms):
    flavor = images[0].flavor
    g = flavor.main_count
    mat = sympy.Matrix(
        g, g, lambda i, j: sympy.diff(poly_to_sympy(images[i], syms), syms[j])
    )
    return sympy.expand(mat.det())


# ------------------------------------------------------------- tame words

def oracle_evaluate(word, side, flavor, field, maxdeg=None):
    """g1 . .. . gk by composing gen_endo(g) after the accumulated endo,
    from the rightmost letter to the leftmost."""
    acc = Endo.identity(side, flavor, field)
    for gen in reversed(word.gens):
        acc = gen_endo(gen, side, flavor, field).compose(acc, maxdeg)
    return acc


# -------------------------------------------------------- random elements

def random_poly(rng, field, flavor, cls=Poly, max_terms=4, max_deg=3):
    """Small random element with exponents spread over all slots."""
    elem = cls(field, flavor)
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        key = [0] * flavor.key_len
        for _ in range(rng.randrange(0, max_deg + 1)):
            key[rng.randrange(flavor.main_count)] += 1
        if flavor.has_h and rng.random() < 0.3:
            key[flavor.h_slot] = rng.randrange(0, 2)
        if flavor.has_k and rng.random() < 0.3:
            key[flavor.k_start + rng.randrange(len(flavor.k_pairs))] = 1
        c = rng.randrange(-4, 5)
        if c == 0:
            c = 1
        raw = field.from_fraction(Fraction(c))
        key = tuple(key)
        prev = terms.get(key)
        terms[key] = raw if prev is None else field.add(prev, raw)
    elem.terms = {k: v for k, v in terms.items() if not field.is_zero(v)}
    return elem
