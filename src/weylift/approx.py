"""Staged tame approximation of bracket-preserving maps.

Given an augmentation-preserving symplectomorphism phi of the
commutative paired algebra over Q, produce a tame word agreeing with
phi below a requested degree.  Stage k reads the lowest (degree k)
deviation of the residual, recognizes it as a Hamiltonian field of a
homogeneous potential via the Euler formula, splits the potential into
powers of linear forms, and cancels each power with a single-coordinate
shift conjugated by linalg.symplectic_completion's matrix for the
power's covector.  Every corrector word evaluates exactly to the unit
shift of its potential, so each stage pushes the residual one degree
higher.  The residual moves past each corrector by the Taylor series of
the undo shift along its constant direction (undo_shift), not by
composing the shift into every monomial.  From _start to the end of
the walk the residual is scaled, int numerators over one denominator
per image (undo_shift), so the walk runs on machine ints; only the
degree-k deviation handed to deviation_hamiltonian is divided.

The word is the linear letter, when the linear part is not the
identity, then one block of letters per stage.  A stage passes each
corrector [A^-1, shift, A] through its exactness check and then fuses it
into its block (_fuse): the A of one corrector and the A^-1 of the next
become one sp letter, an identity sp letter goes, and so does a shift
whose summed polynomial vanishes.  Fusing never crosses a block, so the
word of a lower order is a prefix (stage_prefix).  Only a stage that did
work gets report entries: "stages" holds its number of corrector terms
and "letters" the number of letters in its block.  The stages below the
residual's rank have nothing to do and get none.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm, prod

from .elements import sum_terms
from .endo import Endo, check_symplecto, refuse_constant_terms
from .errors import (
    DeviationNotHamiltonian,
    PositiveCharacteristic,
    SideMismatch,
    StageStall,
    WeyliftError,
    ZeroCovector,
)
from .fields import QQ
from .flavors import STANDARD
from .poly import Poly, poisson_bracket
from .tame import SP, XSHIFT, ElementaryGen, TameWord, evaluate, gen_endo
from .linalg import identity_matrix, mat_mul, symplectic_completion


def hamiltonian_field(h):
    """Images [X_h(g_j)] with X_h(g_j) = {h, g_j}."""
    flavor, field = h.flavor, h.field
    return [
        poisson_bracket(h, Poly.generator(field, flavor, j))
        for j in range(flavor.main_count)
    ]


def hamiltonian_shift_endo(h):
    """The endomorphism g_j -> g_j + X_h(g_j)."""
    flavor, field = h.flavor, h.field
    images = [
        Poly.generator(field, flavor, j) + img
        for j, img in enumerate(hamiltonian_field(h))
    ]
    return Endo("P", flavor, field, images)


def deviation_hamiltonian(deviations, k):
    """Homogeneous degree k+1 potential h with X_h matching the deviations.

    Uses the Euler inversion h = 1/(k+1) sum_j omega(c(j), j) g_c(j) D_j
    and verifies the candidate exactly.
    """
    sample = next((d for d in deviations if not d.is_zero), None)
    if sample is None:
        raise WeyliftError("all deviations are zero; nothing to integrate")
    flavor, field = sample.flavor, sample.field
    h = Poly.zero(field, flavor)
    inv = field.inv(field.from_int(k + 1))
    for j, dev in enumerate(deviations):
        if dev.is_zero:
            continue
        a = flavor.conjugate_index(j)
        w = flavor.omega(a, j)
        term = Poly.generator(field, flavor, a) * dev
        if w == -1:
            term = -term
        h = h + term
    h = h.scale(inv)
    for img, dev in zip(hamiltonian_field(h), deviations):
        if img != dev:
            raise DeviationNotHamiltonian(
                f"degree {k} deviation is not a Hamiltonian vector field"
            )
    return h


class WaringTerm:
    """lam * (covector . generators)^degree with a primitive covector.

    The power L^(degree - 1) of the form L and the expanded potential
    L^(degree - 1) L lam are kept on the term after their first use: the
    re-expansion check, the corrector's exactness check and the undo
    shift all read them.
    """

    __slots__ = ("lam", "covector", "degree", "_power", "_expanded")

    def __init__(self, lam, covector, degree):
        if all(v == 0 for v in covector):
            raise ZeroCovector("covector must be nonzero")
        self.lam = lam
        self.covector = tuple(int(v) for v in covector)
        self.degree = int(degree)
        self._power = self._expanded = None

    def __repr__(self):
        return f"WaringTerm({self.lam}, {self.covector}, {self.degree})"

    def __eq__(self, other):
        if not isinstance(other, WaringTerm):
            return NotImplemented
        return (
            self.lam == other.lam
            and self.covector == other.covector
            and self.degree == other.degree
        )

    def form(self, field, flavor):
        """The linear form covector . generators."""
        return Poly.from_terms(
            field,
            flavor,
            [
                (flavor.gen_key(i, 1), field.from_int(v))
                for i, v in enumerate(self.covector)
                if v
            ],
        )

    def power(self, field, flavor):
        """L^(degree - 1), L the form."""
        cached = self._power
        if cached is None or cached.field != field or cached.flavor != flavor:
            cached = self._power = self.form(field, flavor) ** (self.degree - 1)
        return cached

    def potential(self, field, flavor):
        cached = self._expanded
        if cached is None or cached.field != field or cached.flavor != flavor:
            product = self.power(field, flavor) * self.form(field, flavor)
            cached = self._expanded = product.scale(field.from_fraction(self.lam))
        return cached


def _canonical_covector(vec, d):
    """Primitive vector with positive leading entry; returns (scale, vector)."""
    g = gcd(*[abs(v) for v in vec]) if len(vec) > 1 else abs(vec[0])
    if g == 0:
        return None
    vec = tuple(v // g for v in vec)
    lead = next(v for v in vec if v)
    sign = 1
    if lead < 0:
        sign = -1
        vec = tuple(-v for v in vec)
    return (sign * g) ** d, vec


def _lattice(u, d):
    """The points a of N^u with |a| = d, in descending lex order."""
    if u == 1:
        return [(d,)]
    return [(i,) + rest for i in range(d, -1, -1) for rest in _lattice(u - 1, d - i)]


def _lagrange_numerator(a, d):
    """Integer coefficients of d^d prod_i a_i! L_a, keyed by exponent.

    L_a = prod_i prod_{j < a_i} (d x_i - j s) / (d (a_i - j)), with s the
    sum of the variables, is the degree-d form that is 1 at a and 0 at
    every other lattice point: on |x| = d each factor is
    (x_i - j) / (a_i - j), so L_a vanishes unless x_i >= a_i for all i.
    """
    u = len(a)
    poly = {(0,) * u: 1}
    for i, top in enumerate(a):
        for j in range(top):
            lin = [d - j if k == i else -j for k in range(u)]
            out = {}
            for b, c in poly.items():
                for k, w in enumerate(lin):
                    if w:
                        key = b[:k] + (b[k] + 1,) + b[k + 1 :]
                        out[key] = out.get(key, 0) + c * w
            poly = out
    return poly


def waring_decompose(h, tie_break="lex"):
    """Split a homogeneous form over Q into powers of linear forms.

    Let U be the u main generators h uses and d its degree.  The powers
    (a . g_U)^d over the lattice points a of N^U with |a| = d span the
    degree-d forms in g_U (Reznick, Sums of even powers of real linear
    forms, Mem. AMS 1992), and there are exactly C(u+d-1, d) of them, so
    h is one exact solve over that basis: at most C(u+d-1, d) terms, and
    a form in one generator stays a single term.  Matching coefficients
    of g^b gives sum_a lam_a a^b = h_b / multinomial(d; b): an
    interpolation at the lattice points, whose inverse is read off the
    Lagrange forms of the principal lattice (_lagrange_numerator;
    Chung & Yao, SIAM J. Numer. Anal. 14, 1977).  The tie break "alt"
    uses the basis with alternating signs on the used generators,
    a_i -> (-1)^i a_i, and lists the terms in reverse, so it gives a
    really different word.  Covectors are canonicalized to primitive
    integer vectors and equal covectors merge.  The result re-expands
    to h exactly (checked) in a deterministic order.
    """
    if h.field.char != 0:
        raise PositiveCharacteristic("splitting into powers needs characteristic 0")
    if tie_break not in ("lex", "alt"):
        raise WeyliftError(f"unknown tie break {tie_break!r}")
    if h.is_zero:
        return []
    flavor, field = h.flavor, h.field
    g = flavor.main_count
    d = h.degree()
    if d < 1 or h.height() != d:
        raise WeyliftError("potential must be homogeneous of positive degree")
    exps = {key: flavor.main_exponents(key) for key in h.terms}
    used = [i for i in range(g) if any(e[i] for e in exps.values())]
    alt = tie_break == "alt"
    signs = [(-1) ** i if alt else 1 for i in range(len(used))]
    # c_b = h_b / multinomial(d; b) = h_b prod(b!) / d!, times signs^b on
    # the alternating basis: ints over the one denominator den d!.
    fd = factorial(d)
    den = lcm(*(c.denominator for c in h.terms.values()))
    rhs = {}
    for key, coeff in h.terms.items():
        b = tuple(exps[key][i] for i in used)
        c = coeff.numerator * (den // coeff.denominator) * prod(map(factorial, b))
        rhs[b] = -c if alt and sum(b[1::2]) % 2 else c
    # lam_a = sum_b numer_b c_b / (d^d prod(a!)), over den d! d! d^d.
    acc = {}
    for a in _lattice(len(used), d):
        numer = _lagrange_numerator(a, d)
        lam = sum(numer.get(b, 0) * c for b, c in rhs.items())
        if not lam:
            continue
        vec = [0] * g
        for i, s, e in zip(used, signs, a):
            vec[i] = s * e
        scale, vec = _canonical_covector(vec, d)
        acc[vec] = acc.get(vec, 0) + lam * scale * (fd // prod(map(factorial, a)))
    den *= fd * fd * d**d
    terms = [
        WaringTerm(Fraction(lam, den), vec, d) for vec, lam in sorted(acc.items()) if lam
    ]
    if alt:
        terms.reverse()
    total = Poly.zero(field, flavor)
    for t in terms:
        total = total + t.potential(field, flavor)
    if total != h:
        raise WeyliftError("power decomposition failed to re-expand")
    return terms


def corrector(term, flavor):
    """Word evaluating exactly to the unit shift of the term over Q.

    The conjugating matrix moves the covector form onto the first
    momentum, where the potential becomes a single-coordinate shift.
    """
    n = flavor.pairs
    d = term.degree
    if d < 2:
        raise WeyliftError("corrector terms need degree at least 2")
    a = symplectic_completion(term.covector)
    shift = ElementaryGen(XSHIFT, (0, {d - 1: term.lam * d}))
    gen_a = ElementaryGen(SP, a)
    inv_a = gen_a.inverse()
    gens = [inv_a, shift, gen_a]
    got = evaluate(TameWord("symplectic", n, gens), "P", flavor, QQ)
    if got != hamiltonian_shift_endo(term.potential(QQ, flavor)):
        raise WeyliftError("corrector word failed its exactness check")
    return gens


def _derivative_along(elem, v):
    """d_v elem = sum_j v_j d_j elem for (j, v_j) pairs, summed in one dict."""
    out = Poly(elem.field, elem.flavor)
    out.terms = sum_terms(
        elem.field,
        (
            (key[:j] + (e - 1,) + key[j + 1 :], c * (e * w))
            for key, c in elem.terms.items()
            for j, w in v
            if (e := key[j])
        ),
    )
    return out


def _scaled(img):
    """(N, D) with N = D img, D the lcm of img's denominators."""
    den = lcm(*(c.denominator for c in img.terms.values()))
    num = Poly(img.field, img.flavor)
    num.terms = {key: c.numerator * (den // c.denominator) for key, c in img.terms.items()}
    return num, den


def undo_shift(residual, term, maxdeg):
    """The scaled residual after the shift by minus the term's potential,
    to maxdeg.

    A scaled residual holds one pair (N_j, D_j) per image R_j = N_j / D_j:
    N_j with int coefficients and an int D_j >= 1 prime to their gcd, so
    D_j is the lcm of R_j's denominators.  The corrector of lam L^d,
    L = c . g, evaluates to the shift by that potential; the shift by
    minus it, g -> g + s L^(d-1) v with s = -lam d and
    v_j = omega(c(j), j) c_c(j), undoes it.  X_h kills L, so L stays put
    along the move and each image is its Taylor series along v:

        R_j(g + s L^(d-1) v) = sum_m (s L^(d-1))^m / m! d_v^m R_j,

    exact and finite over characteristic 0.  This equals
    hamiltonian_shift_endo(-potential).compose(residual, maxdeg)
    and skips substituting the shift into every monomial.  With s = a / b
    and M the last m an image uses, the sum of a^m b^(M-m) M!/m!
    L^(m(d-1)) d_v^m N_j over D_j b^M M!, both divided by their gcd, is
    the new pair.  The powers L^(m(d-1)) are shared by all images and
    built only when some image still has a nonzero m-th derivative along
    v; the series stops at the first power that truncates to zero.
    """
    num, _ = residual[0]
    flavor, field = num.flavor, num.field
    v = []
    for j in range(flavor.main_count):
        cj = flavor.conjugate_index(j)
        if term.covector[cj]:
            v.append((j, flavor.omega(cj, j) * term.covector[cj]))
    step = term.power(field, flavor).truncate(maxdeg)
    s = -term.lam * term.degree
    a, b = s.numerator, s.denominator
    powers = [step]
    out = []
    for num, den in residual:
        series = [num]
        deriv = _derivative_along(num, v)
        while not deriv.is_zero:
            m = len(series)
            if m > len(powers):
                powers.append(powers[-1].mul_truncated(step, maxdeg))
            if powers[m - 1].is_zero:
                break
            series.append(powers[m - 1].mul_truncated(deriv, maxdeg))
            deriv = _derivative_along(deriv, v)
        top = len(series) - 1
        if not top:
            out.append((num, den))
            continue
        fact = factorial(top)
        weights = [a**m * b ** (top - m) * (fact // factorial(m)) for m in range(top + 1)]
        img = Poly(field, flavor)
        img.terms = sum_terms(field, (
            (key, c * w) for poly, w in zip(series, weights) for key, c in poly.terms.items()
        ))
        den *= b**top * fact
        g = gcd(den, *img.terms.values())
        if g > 1:
            img.terms = {key: c // g for key, c in img.terms.items()}
            den //= g
        out.append((img, den))
    return out


def _deviations(residual):
    """The pairs (N_j - D_j g_j, D_j) of the scaled residual, and their rank."""
    flavor = residual[0][0].flavor
    devs = [
        (num - Poly(num.field, flavor, {flavor.gen_key(j, 1): den}), den)
        for j, (num, den) in enumerate(residual)
    ]
    return devs, min(dev.height() for dev, _ in devs)


def _start(endo, n_target):
    """Validate the endo: (first letters, scaled residual the stages start from)."""
    flavor, field = endo.flavor, endo.field
    if endo.side != "P":
        raise SideMismatch("approximation reads commutative images")
    if field.char != 0:
        raise PositiveCharacteristic("approximation runs over characteristic 0")
    t = flavor.t_slot
    if flavor.kind != STANDARD or flavor.aux or any(
        k[t] for img in endo.images for k in img.terms
    ):
        raise WeyliftError("approximation expects t-free images on the plain paired flavor")
    # On t-free images the bracket check alone suffices: J Omega J^T = Omega
    # gives det J = 1 and a symplectic linear part.
    check_symplecto(endo)
    maxdeg = n_target - 1
    word_gens = []
    residual = Endo("P", flavor, field, [img.truncate(maxdeg) for img in endo.images])
    refuse_constant_terms(residual)
    lin = endo.linear_part()
    if lin != identity_matrix(field, flavor.main_count):
        gen_lin = ElementaryGen(SP, lin)
        word_gens.append(gen_lin)
        inv_endo = gen_endo(gen_lin.inverse(), "P", flavor, field)
        residual = inv_endo.compose(residual, maxdeg)
    return word_gens, [_scaled(img) for img in residual.images]


def _fuse(block, gens, ident):
    """Push the letters gens onto block, a stage's fused letters as
    (kind, data); ident is the identity matrix as a tuple of rows.

    Adjacent sp letters become one product matrix, the later letter on
    the left as evaluate reads them; adjacent shifts of one kind and pair
    add their polynomials; a letter that comes out as the identity is
    dropped.  Both merges give the same endo on every side, so the block
    evaluates as the unfused letters do.
    """
    for gen in gens:
        top = block[-1] if block else None
        if gen.kind == SP:
            data = gen.data
            if top is not None and top[0] == SP:
                block.pop()
                data = tuple(map(tuple, mat_mul(data, top[1])))
            if data != ident:
                block.append((SP, data))
            continue
        index, poly = gen.data
        if top is not None and top[0] == gen.kind and top[1][0] == index:
            block.pop()
            summed = dict(top[1][1])
            for e, c in poly.items():
                summed[e] = summed.get(e, 0) + c
            poly = {e: c for e, c in summed.items() if c}
        if poly:
            block.append((gen.kind, (index, poly)))


def _walk(word_gens, residual, first, n_target, tie_break, report, alt=None):
    """Stages first .. n_target - 1 from the scaled residual: (word, report).
    An empty alt list gets the alt result, forked at the first stage whose
    alt split differs."""
    flavor = residual[0][0].flavor
    ident = tuple(map(tuple, identity_matrix(QQ, flavor.main_count)))
    # The residual is the identity below degree rank, so those stages have
    # nothing to do and get no entry; past an identity residual (rank inf)
    # none has.  A stage that works has k == rank, so some degree-k
    # deviation is nonzero.
    devs, rank = _deviations(residual)
    for k in range(first, n_target):
        if k < rank:
            continue
        degree_k = [dev.homogeneous_part(k).scale(QQ.inv(den)) for dev, den in devs]
        h = deviation_hamiltonian(degree_k, k)
        terms = waring_decompose(h, tie_break)
        if alt == [] and waring_decompose(h, "alt") != terms:
            fork = {key: dict(report[key]) for key in ("stages", "letters")}
            fork["tie_break"] = "alt"
            alt.append(_walk(list(word_gens), residual, k, n_target, "alt", fork))
        block = []
        for term in terms:
            _fuse(block, corrector(term, flavor), ident)
            residual = undo_shift(residual, term, n_target - 1)
        word_gens += [ElementaryGen(kind, data) for kind, data in block]
        report["stages"][k] = len(terms)
        report["letters"][k] = len(block)
        devs, rank = _deviations(residual)
        if rank <= k:
            raise StageStall(f"stage {k} left a degree {rank} deviation")
    report["residual_height"] = None if rank == float("inf") else rank
    return TameWord("symplectic", flavor.pairs, word_gens), report


def approximate(endo, n_target, tie_break="lex"):
    """Tame word agreeing with the endo below degree n_target.

    Returns (word, report).  The report maps each stage that did work to
    its number of corrector terms ("stages") and to the number of fused
    letters it emitted ("letters"), and gives the final residual height.
    """
    report = {"stages": {}, "letters": {}, "tie_break": tie_break}
    return _walk(*_start(endo, n_target), 2, n_target, tie_break, report)


def approximate_both(endo, n_target):
    """(approximate(endo, n_target), approximate(endo, n_target, "alt")) from
    one validation and one lex walk: equal Waring terms give equal correctors
    and residuals, so the alt stages fork off at the first differing split."""
    alt, report = [], {"stages": {}, "letters": {}, "tie_break": "lex"}
    lex = _walk(*_start(endo, n_target), 2, n_target, "lex", report, alt)
    return lex, alt[0] if alt else (lex[0], {**report, "tie_break": "alt"})


def stage_prefix(word, report, n_target):
    """The word approximate returns at order n_target, cut from the word
    and report of a higher order for the same endo.

    Stage k reads only the degree-k residual, so the stages below
    n_target run alike at both orders: the prefix is the linear letter,
    if there is one, then the letters of those stages, which
    report["letters"] counts.  Fusing stays within a stage, so the cut
    falls between two blocks.
    """
    letters = report["letters"]
    linear = len(word) - sum(letters.values())
    kept = sum(count for k, count in letters.items() if k < n_target)
    return TameWord(word.kind, word.n, word.gens[: linear + kept])
