"""Independent reference implementations used to cross-check the library.

The normal-ordering oracle works on raw generator words with the
one-step rewrite rules only, so it shares no code with the closed-form
reordering in the package.  It builds each word letter by letter: a
letter a after a normal-ordered word u b, with b ranked after a, is
placed by u b a = (u a) b + u [b, a], [b, a] being central, and each
(u, a) result is cached per flavor.  The commutative oracles go through sympy,
and the Poisson oracle builds {f, g} from partial-derivative elements
and their products.
The word oracle composes one endo per letter, rightmost first, endo_rank
reads the least height of the deviations, and the
center-along-a-word oracle composes phi_p of one letter at a time.  The
commutator oracle builds both products and subtracts, the
centrality oracle commutes with every generator, the completion oracle
runs Gram-Schmidt through Field dispatch, the symplectic-matrix oracle
multiplies out A^T J A with a dense J, and the scalar oracle reduces
rationals through a Fraction round trip.  The pole-scan oracle walks every
witness and sampled curve and tests each on every key of the images.
The Waring oracle solves over the lattice basis with one Fraction per
coefficient, and scaled_image writes an image as an int numerator over
the lcm of its denominators.
"""

import math
import random
from fractions import Fraction
from operator import add, mul

import sympy

from weylift import Endo, Poly, QQ, WaringTerm, WeylElt
from weylift.approx import _canonical_covector, _lagrange_numerator, _lattice
from weylift.charp import phi_p
from weylift.errors import IndexOutOfRange, NotPIntegral, WeyliftError, ZeroCovector
from weylift.flavors import HAUG, SKEW
from weylift.linalg import mat_inv, mat_mul, transpose
from weylift.singlift import (
    _REDUCTION_PAIRS,
    DiagonalCurve,
    ScanVerdict,
    _special_positions,
    position_reduction,
)
from weylift.tame import gen_endo


# ---------------------------------------------------------- word rewriting

def _letter_rank(flavor, letter):
    kind, i = letter
    if kind == "x":
        return i
    return flavor.main_count // 2 + i if flavor.paired else i


def _letter_bracket(flavor, b, a):
    """[b, a] = b a - a b for letters with b ranked after a: None when it
    is zero, else (sign, h exponent, k pair or None) of the central result."""
    if flavor.paired:
        if a[0] == "x" and b == ("d", a[1]):
            # d x = x d + 1 (or + h)
            return 1, (1 if flavor.kind == HAUG else 0), None
        return None
    # xi_j xi_i = xi_i xi_j - h k_ij for i < j
    return -1, 1, (a[1], b[1])


# Per flavor: (normal-ordered word u, letter a) -> normal form of u a.
_APPENDS = {}


def _append_letter(flavor, u, a):
    """Normal-order u a for a normal-ordered word u.

    Returns {(letters, h_exp, k_tuple): int}.  When u = w b with b ranked
    after a, u a = (w a) b + w [b, a], and [b, a] is central.
    """
    memo = _APPENDS.setdefault(flavor, {})
    out = memo.get((u, a))
    if out is not None:
        return out
    zero_k = (0,) * len(flavor.k_pairs)
    if not u or _letter_rank(flavor, u[-1]) <= _letter_rank(flavor, a):
        out = {(u + (a,), 0, zero_k): 1}
    else:
        w, b = u[:-1], u[-1]
        out = {}
        for (wa, h_wa, k_wa), c in _append_letter(flavor, w, a).items():
            for (v, h_v, k_v), c2 in _append_letter(flavor, wa, b).items():
                key = (v, h_wa + h_v, tuple(map(add, k_wa, k_v)))
                out[key] = out.get(key, 0) + c * c2
        bracket = _letter_bracket(flavor, b, a)
        if bracket is not None:
            sign, h_e, pair = bracket
            k_vec = list(zero_k)
            if pair is not None:
                k_vec[flavor.k_pairs.index(pair)] = 1
            key = (w, h_e, tuple(k_vec))
            out[key] = out.get(key, 0) + sign
        out = {key: c for key, c in out.items() if c}
    memo[(u, a)] = out
    return out


def naive_normal_order(flavor, words):
    """Normal-order a coefficient dict over raw generator words.

    words: {(letters tuple, h_exp, k_tuple): Fraction}
    letters: ("x", i) / ("d", i) for paired flavors, ("xi", i) for skew.
    Returns the same shape with all words in normal order.  Each word is
    built letter by letter, each letter put in place by _append_letter.
    """
    done = {}
    for (letters, h_e, k_vec), coeff in words.items():
        if coeff == 0:
            continue
        partial = {((), h_e, k_vec): coeff}
        for a in letters:
            step = {}
            for (u, h_u, k_u), c in partial.items():
                for (v, h_v, k_v), c2 in _append_letter(flavor, u, a).items():
                    key = (v, h_u + h_v, tuple(map(add, k_u, k_v)))
                    step[key] = step.get(key, 0) + c * c2
            partial = step
        for key, c in partial.items():
            done[key] = done.get(key, Fraction(0)) + c
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


def _k_exponents(flavor, key):
    """The k-symbol exponents of a key, in k_pairs order."""
    return key[flavor.k_start : flavor.k_start + len(flavor.k_pairs)]


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
        k_vec = tuple(_k_exponents(flavor, key)) if flavor.has_k else ()
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


def oracle_commutator(a, b, maxdeg=None):
    """a b - b a from both whole products, whose commutative parts cancel
    in the subtraction; with maxdeg, from both truncated products (haug
    and skew only)."""
    if maxdeg is None:
        return a * b - b * a
    return a.mul_truncated(b, maxdeg) - b.mul_truncated(a, maxdeg)


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


def _partial(f, i):
    """Formal partial derivative of the Poly f in the i-th main generator."""
    flavor = f.flavor
    if not 0 <= i < flavor.main_count:
        raise IndexOutOfRange(f"no main generator {i}")
    field = f.field
    # e -> e - 1 in one slot is injective, so no two terms meet.
    terms = {
        key[:i] + (e - 1,) + key[i + 1 :]: field.mul(c, field.from_int(e))
        for key, c in f.terms.items()
        if (e := key[i])
    }
    return Poly(field, flavor, terms)


def oracle_poisson_bracket(f, g):
    """{f, g} from the partial-derivative elements: for each contraction
    pair (j, i) with {g_j, g_i} = s z, the element s z times
    d_j f d_i g - d_i f d_j g, built by products and summed."""
    flavor, field = f.flavor, f.field
    df = [_partial(f, s) for s in range(flavor.main_count)]
    dg = [_partial(g, s) for s in range(flavor.main_count)]
    result = Poly.zero(field, flavor)
    for j, i, central, sign in flavor.contractions:
        term = df[j] * dg[i] - df[i] * dg[j]
        key = [0] * flavor.key_len
        for slot in central:
            key[slot] = 1
        result = result + Poly(field, flavor, {tuple(key): field.from_int(sign)}) * term
    return result


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
    """Standard bracket via partial derivatives, times h for haug; on skew,
    {xi_i, xi_j} = h k_ij for i < j.  Rational coefficients only."""
    flavor = a.flavor
    ea, eb = poly_to_sympy(a, syms), poly_to_sympy(b, syms)
    out = sympy.Integer(0)
    if flavor.kind == SKEW:
        h = syms[flavor.h_slot]
        for i, j in flavor.k_pairs:
            k = syms[flavor.k_slot(i, j)]
            out += h * k * (
                sympy.diff(ea, syms[i]) * sympy.diff(eb, syms[j])
                - sympy.diff(ea, syms[j]) * sympy.diff(eb, syms[i])
            )
        return sympy.expand(out)
    m = flavor.pairs
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


# ---------------------------------------------------------------- scalars

def is_q_raw(c):
    """Whether c has the form of a Q raw value: an int, or a Fraction with
    denominator above 1."""
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def oracle_from_fraction(field, q):
    """A rational as a raw field value, through a Fraction round trip and
    Field.div."""
    q = Fraction(q)
    if field.kind == "Q":
        return q
    if q.denominator % field.p == 0:
        raise NotPIntegral(f"{q} has denominator divisible by {field.p}")
    return field.div(field.from_int(q.numerator), field.from_int(q.denominator))


def scaled_image(img):
    """(N, D) with img = N / D: D the lcm of the coefficients' denominators
    and N the Poly of int numerators, through Fractions."""
    den = math.lcm(*(Fraction(c).denominator for c in img.terms.values()))
    num = Poly(img.field, img.flavor)
    num.terms = {key: int(Fraction(c) * den) for key, c in img.terms.items()}
    return num, den


# ------------------------------------------------------------- waring

def oracle_waring_decompose(h, tie_break="lex"):
    """waring_decompose's terms, solved with one Fraction per right-hand
    side entry and per lattice point, without the re-expansion check."""
    flavor, d = h.flavor, h.degree()
    exps = {key: flavor.main_exponents(key) for key in h.terms}
    used = [i for i in range(flavor.main_count) if any(e[i] for e in exps.values())]
    alt = tie_break == "alt"
    signs = [(-1) ** i if alt else 1 for i in range(len(used))]
    rhs = {}
    for key, coeff in h.terms.items():
        b = tuple(exps[key][i] for i in used)
        c = Fraction(coeff) / (math.factorial(d) // math.prod(map(math.factorial, b)))
        rhs[b] = -c if alt and sum(b[1::2]) % 2 else c
    acc = {}
    for a in _lattice(len(used), d):
        numer = _lagrange_numerator(a, d)
        lam = sum(numer.get(b, 0) * c for b, c in rhs.items())
        if not lam:
            continue
        lam /= d**d * math.prod(map(math.factorial, a))
        vec = [0] * flavor.main_count
        for i, s, e in zip(used, signs, a):
            vec[i] = s * e
        scale, vec = _canonical_covector(vec, d)
        acc[vec] = acc.get(vec, Fraction(0)) + lam * scale
    terms = [WaringTerm(lam, vec, d, flavor) for vec, lam in sorted(acc.items()) if lam]
    return terms[::-1] if alt else terms


# ------------------------------------------------------------- centrality

def oracle_is_central(a):
    """True when a commutes with every main generator, by 2 * main_count
    products."""
    flavor = a.flavor
    for i in range(flavor.main_count):
        gen = WeylElt.generator(a.field, flavor, i)
        if not oracle_commutator(a, gen).is_zero:
            return False
    return True


# ---------------------------------------------------- symplectic completion

def oracle_symplectic_completion(field, covector, flavor):
    """Gram-Schmidt on raw field values through Field dispatch: the same
    steps and candidate order as linalg.symplectic_completion.  J is dense,
    read from flavor.omega, and the inverse transpose comes from
    Gauss-Jordan, so no code is shared with the closed form."""
    g = flavor.main_count
    n = flavor.pairs
    j = _dense_omega(field, flavor)
    c = [field.from_int(v) for v in covector]
    if all(field.is_zero(v) for v in c):
        raise ZeroCovector("covector must be nonzero")
    perm = [next(col for col in range(g) if not field.is_zero(row[col])) for row in j]
    plus = [row[col] == field.one() for row, col in zip(j, perm)]

    def pairing(a, b):
        s = field.zero()
        for x, i, up in zip(a, perm, plus):
            t = field.mul(x, b[i])
            s = field.add(s, t) if up else field.sub(s, t)
        return s

    basis_v = [c]
    basis_u = []
    pool = [[field.from_int(int(r == s)) for r in range(g)] for s in range(g)]

    def project(z):
        for u, v in zip(basis_u, basis_v):
            zv = pairing(z, v)
            zu = pairing(z, u)
            z = [
                field.add(a, field.sub(field.mul(zv, b), field.mul(zu, c)))
                for a, b, c in zip(z, u, v)
            ]
        return z

    while len(basis_v) < n or len(basis_u) < n:
        if len(basis_u) < len(basis_v):
            v = basis_v[len(basis_u)]
            w = next(
                (zc for zc in map(project, pool) if not field.is_zero(pairing(zc, v))),
                None,
            )
            if w is None:
                raise WeyliftError("failed to complete a symplectic basis")
            scale = field.inv(field.neg(pairing(w, v)))
            basis_u.append([field.mul(scale, a) for a in w])
        else:
            z = next(
                (zc for zc in map(project, pool) if any(not field.is_zero(a) for a in zc)),
                None,
            )
            if z is None:
                raise WeyliftError("failed to extend a symplectic basis")
            basis_v.append(z)
    cols = basis_u + basis_v
    for r in range(g):
        for s in range(r + 1, g):
            if not field.is_zero(field.sub(pairing(cols[r], cols[s]), j[r][s])):
                raise WeyliftError("completion produced a non-symplectic basis")
    return transpose(mat_inv(field, transpose(cols)))


def _dense_omega(field, flavor):
    g = flavor.main_count
    return [[field.from_int(flavor.omega(r, c)) for c in range(g)] for r in range(g)]


def oracle_is_symplectic(a, flavor):
    """A^T J A == J with J dense from flavor.omega and products from mat_mul."""
    j = _dense_omega(QQ, flavor)
    return mat_mul(mat_mul(transpose(a), j), a) == j


# ------------------------------------------------------------- tame words

def endo_rank(endo):
    """Least graded degree where the endo deviates from the identity."""
    ident = Endo.identity(endo.side, endo.flavor, endo.field)
    heights = [(img - gen).height() for img, gen in zip(endo.slots, ident.slots)]
    return min(heights) if heights else math.inf


def oracle_evaluate(word, side, flavor, field, maxdeg=None):
    """g1 . .. . gk by composing gen_endo(g) after the accumulated endo,
    from the rightmost letter to the leftmost."""
    acc = Endo.identity(side, flavor, field)
    for gen in reversed(word.gens):
        acc = gen_endo(gen, side, flavor, field).compose(acc, maxdeg)
    return acc


def oracle_center_along_word(word, flavor, field):
    """phi_p of the word's ordered evaluation over F_p: the full phi_p of
    each letter (a p-th power per image), composed in word order."""
    acc = Endo.identity("P", flavor.center_flavor(), field)
    for gen in word.gens:
        acc = acc.compose(phi_p(gen_endo(gen, "W", flavor, field)))
    return acc


# -------------------------------------------------------------- pole scan

def _witness_curves(flavor, n, pos):
    """Weight lists of the witness family at one position."""
    g = flavor.main_count
    for m2 in range(1, n + 2):
        for m1 in range(n * m2, (n + 1) * m2):
            if m1 < m2:
                continue
            weights = [m2] * g
            weights[pos] = m1
            yield weights


def oracle_has_pole(flavor, supports, weights):
    """Whether some key e in the image of slot s moves to a negative t
    exponent sum_j full_j e_j - full_s, where full holds the curve
    weights, 0 for h, w_a + w_b for each k_ab and 1 for t."""
    full = [
        *weights,
        *(0,) * flavor.has_h,
        *(weights[a] + weights[b] for a, b in flavor.k_pairs),
        1,
    ]
    for base, keys in zip(full, supports):
        for key in keys:
            if sum(map(mul, full, key)) < base:
                return True
    return False


def oracle_hn_scan(endo, n, sample_curves=0, seed=0):
    """hn_scan curve by curve: every witness curve in order, the
    general-position retries, then every random curve, each tested on
    every key of every slot image."""
    flavor = endo.flavor
    g = flavor.main_count
    supports = [list(img.terms) for img in endo.slots]
    for pos in range(g):
        for weights in _witness_curves(flavor, n, pos):
            if oracle_has_pole(flavor, supports, weights):
                return ScanVerdict("pole", DiagonalCurve(weights))
    if flavor.aux and endo.side == "P":
        for pos in _special_positions(endo):
            reduced = None
            chosen = None
            for lam, delta in _REDUCTION_PAIRS:
                try:
                    cand = position_reduction(endo, pos, lam, delta)
                except (WeyliftError, IndexOutOfRange):
                    break
                if pos not in _special_positions(cand):
                    reduced = cand
                    chosen = (pos, lam, delta)
                    break
            if reduced is None:
                continue
            reduced_supports = [list(img.terms) for img in reduced.slots]
            for weights in _witness_curves(flavor, n, pos):
                if oracle_has_pole(flavor, reduced_supports, weights):
                    return ScanVerdict("pole", DiagonalCurve(weights), chosen)
    rng = random.Random(seed)
    for _ in range(sample_curves):
        m_min = rng.randrange(1, 4)
        weights = [rng.randrange(m_min, (n + 1) * m_min) for _ in range(g)]
        weights[rng.randrange(g)] = m_min
        # m_min is the smallest weight, so this is DiagonalCurve.order().
        if max(weights) // m_min > n:
            continue
        if oracle_has_pole(flavor, supports, weights):
            return ScanVerdict("pole", DiagonalCurve(weights))
    return ScanVerdict("consistent")


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


def random_unimodular_matrix(g, rng):
    """A g x g integer matrix of determinant one from four row operations:
    on g > 2 slots most are not symplectic."""
    acc = [[Fraction(int(r == c)) for c in range(g)] for r in range(g)]
    for _ in range(4):
        i, j = rng.sample(range(g), 2)
        m = rng.choice([-2, -1, 1, 2])
        for col in range(g):
            acc[i][col] += m * acc[j][col]
    return acc
