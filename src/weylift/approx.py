"""Staged tame approximation of bracket-preserving maps.

Given an augmentation-preserving symplectomorphism phi of the
commutative paired algebra over Q, produce a tame word agreeing with
phi below a requested degree.  Stage k reads the lowest (degree k)
deviation of the residual, recognizes it as a Hamiltonian field of a
homogeneous potential via the Euler formula, splits the potential into
powers of linear forms, and cancels each power with a conjugated
single-coordinate shift.  Every corrector word evaluates exactly to
the unit shift of its potential, so each stage pushes the residual one
degree higher.  The residual moves past each corrector by the Taylor
series of the undo shift along its constant direction (undo_shift), not
by composing the shift into every monomial.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import factorial, gcd, prod

from .elements import sum_terms
from .endo import Endo, check_symplecto, endo_rank, jacobian_is_unit
from .errors import (
    DeviationNotHamiltonian,
    NotSymplectic,
    PositiveCharacteristic,
    SideMismatch,
    StageStall,
    WeyliftError,
    ZeroCovector,
)
from .fields import QQ
from .flavors import STANDARD
from .poly import Poly
from .tame import SP, XSHIFT, ElementaryGen, TameWord, evaluate, gen_endo
from .linalg import (
    identity_matrix,
    is_symplectic,
    omega_matrix_raw,
    signed_permutation,
    symplectic_inverse,
    transpose,
)


def hamiltonian_field(h):
    """Images [X_h(g_j)] with X_h(g_j) = sum_a omega(a, j) d_a h."""
    flavor, field = h.flavor, h.field
    g = flavor.main_count
    out = []
    for j in range(g):
        a = flavor.conjugate_index(j)
        w = flavor.omega(a, j)
        img = h.partial(a)
        if w == -1:
            img = -img
        out.append(img)
    return out


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

    The expanded potential is kept on the term after its first use: the
    re-expansion check, the corrector's exactness check and the undo
    shift all read it.
    """

    __slots__ = ("lam", "covector", "degree", "_expanded")

    def __init__(self, lam, covector, degree):
        if all(v == 0 for v in covector):
            raise ZeroCovector("covector must be nonzero")
        self.lam = lam
        self.covector = tuple(int(v) for v in covector)
        self.degree = int(degree)
        self._expanded = None

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

    def potential(self, field, flavor):
        cached = self._expanded
        if cached is not None and cached.field == field and cached.flavor == flavor:
            return cached
        form = self.form(field, flavor)
        self._expanded = (form ** self.degree).scale(field.from_fraction(self.lam))
        return self._expanded


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
    return Fraction(sign * g) ** d, vec


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
    # c_b = h_b / multinomial(d; b), times signs^b on the alternating basis.
    rhs = {}
    for key, coeff in h.terms.items():
        b = tuple(exps[key][i] for i in used)
        c = Fraction(coeff) / (factorial(d) // prod(factorial(e) for e in b))
        rhs[b] = -c if alt and sum(b[1::2]) % 2 else c
    acc = {}
    for a in _lattice(len(used), d):
        numer = _lagrange_numerator(a, d)
        lam = sum(numer.get(b, 0) * c for b, c in rhs.items())
        if not lam:
            continue
        lam /= d ** d * prod(factorial(e) for e in a)
        vec = [0] * g
        for i, s, e in zip(used, signs, a):
            vec[i] = s * e
        scale, vec = _canonical_covector(vec, d)
        acc[vec] = acc.get(vec, Fraction(0)) + lam * scale
    terms = [
        WaringTerm(lam, vec, d) for vec, lam in sorted(acc.items()) if lam
    ]
    if alt:
        terms.reverse()
    total = Poly.zero(field, flavor)
    for t in terms:
        total = total + t.potential(field, flavor)
    if total != h:
        raise WeyliftError("power decomposition failed to re-expand")
    return terms


def symplectic_completion(field, covector, flavor):
    """Matrix A with A symplectic and apply(linear(A), c . g) = first momentum.

    Builds a symplectic basis whose first momentum column is the
    covector, then returns the inverse transpose.  J is a signed
    permutation (row i holds sign_i at column s_i), so the pairing
    a^T J b is sum_i sign_i a_i b_(s_i), and the inverse of the basis
    matrix is linalg.symplectic_inverse.
    """
    g = flavor.main_count
    n = flavor.pairs
    j = omega_matrix_raw(field, flavor)
    c = [field.from_int(v) for v in covector]
    if all(field.is_zero(v) for v in c):
        raise ZeroCovector("covector must be nonzero")
    perm, plus = signed_permutation(field, j)

    def pairing(a, b):
        s = field.zero()
        for x, i, up in zip(a, perm, plus):
            t = field.mul(x, b[i])
            s = field.add(s, t) if up else field.sub(s, t)
        return s

    basis_v = [c]
    basis_u = []
    # Candidate pool: standard basis vectors.
    pool = [
        [field.from_int(int(r == s)) for r in range(g)] for s in range(g)
    ]

    def project(z):
        # Strip the span of each completed pair: with <u, v> = -1 the
        # symplectic projection is z + <z,v> u - <z,u> v.
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
            w = None
            for cand in pool:
                zc = project(cand)
                if not field.is_zero(pairing(zc, v)):
                    w = zc
                    break
            if w is None:
                raise WeyliftError("failed to complete a symplectic basis")
            scale = field.inv(field.neg(pairing(w, v)))
            basis_u.append([field.mul(scale, a) for a in w])
        else:
            z = None
            for cand in pool:
                zc = project(cand)
                if any(not field.is_zero(a) for a in zc):
                    z = zc
                    break
            if z is None:
                raise WeyliftError("failed to extend a symplectic basis")
            basis_v.append(z)
    # B^T J B = J, entry by entry: entry (r, s) is the pairing of columns
    # r and s.  Both sides are antisymmetric, so r < s is the whole check.
    cols = basis_u + basis_v
    for r in range(g):
        for s in range(r + 1, g):
            if not field.is_zero(field.sub(pairing(cols[r], cols[s]), j[r][s])):
                raise WeyliftError("completion produced a non-symplectic basis")
    b = transpose(cols)
    return transpose(symplectic_inverse(field, b, j))


#: Letters in one corrector word: conjugate, shift, conjugate back.
CORRECTOR_LETTERS = 3


def corrector(term, flavor, field=QQ, check=True):
    """Word evaluating exactly to the unit shift of the term.

    The conjugating matrix moves the covector form onto the first
    momentum, where the potential becomes a single-coordinate shift.
    """
    n = flavor.pairs
    d = term.degree
    if d < 2:
        raise WeyliftError("corrector terms need degree at least 2")
    a = symplectic_completion(field, term.covector, flavor)
    a_fracs = tuple(tuple(Fraction(v) for v in row) for row in a)
    shift = ElementaryGen(XSHIFT, (0, {d - 1: term.lam * d}))
    gen_a = ElementaryGen(SP, a_fracs)
    inv_a = gen_a.inverse()
    gens = [inv_a, shift, gen_a]
    if check:
        got = evaluate(TameWord("symplectic", n, gens), "P", flavor, field)
        expected = hamiltonian_shift_endo(term.potential(field, flavor))
        if got != expected:
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


def undo_shift(residual, term, maxdeg):
    """The residual after the shift by minus the term's potential, to maxdeg.

    The corrector of lam L^d, L = c . g, evaluates to the shift by that
    potential; the shift by minus it, g -> g + s L^(d-1) v with s = -lam d
    and v_j = omega(c(j), j) c_c(j), undoes it.  X_h kills L, so L stays
    put along the move and each image is its Taylor series along v:

        R_j(g + s L^(d-1) v) = sum_m (s L^(d-1))^m / m! d_v^m R_j,

    exact and finite over characteristic 0.  This equals
    hamiltonian_shift_endo(-potential).compose(residual, maxdeg)
    and skips substituting the shift into every monomial.  The factors
    F_m = (s L^(d-1))^m / m! are shared by all images and stop at the
    first one that truncates to zero.
    """
    flavor, field = residual.flavor, residual.field
    v = []
    for j in range(flavor.main_count):
        a = flavor.conjugate_index(j)
        if term.covector[a]:
            v.append((j, flavor.omega(a, j) * term.covector[a]))
    d = term.degree
    step = (term.form(field, flavor) ** (d - 1)).truncate(maxdeg)
    step = step.scale(field.from_fraction(-term.lam * d))
    factors = []
    factor = step
    while not factor.is_zero:
        factors.append(factor)
        factor = factor.mul_truncated(step, maxdeg).scale(
            field.inv(field.from_int(len(factors) + 1))
        )
    images = []
    for img in residual.images:
        parts = [img.terms.items()]
        deriv = img
        for factor in factors:
            deriv = _derivative_along(deriv, v)
            if deriv.is_zero:
                break
            parts.append(factor.mul_truncated(deriv, maxdeg).terms.items())
        out = Poly(field, flavor)
        out.terms = sum_terms(field, chain.from_iterable(parts))
        images.append(out)
    return Endo("P", flavor, field, images, allow_free_term=True)


def approximate(endo, n_target, tie_break="lex"):
    """Tame word agreeing with the endo below degree n_target.

    Returns (word, report).  The report lists the number of corrector
    terms per stage and the final residual height.
    """
    flavor, field = endo.flavor, endo.field
    if endo.side != "P":
        raise SideMismatch("approximation reads commutative images")
    if field.char != 0:
        raise PositiveCharacteristic("approximation runs over characteristic 0")
    if flavor.kind != STANDARD or flavor.aux:
        raise WeyliftError("approximation expects the plain paired flavor")
    check_symplecto(endo)
    jacobian_is_unit(endo)
    maxdeg = n_target - 1
    word_gens = []
    residual = Endo(
        "P",
        flavor,
        field,
        [img.truncate(maxdeg) for img in endo.images],
    )
    lin = endo.linear_part()
    ident = identity_matrix(field, flavor.main_count)
    if lin != ident:
        j = omega_matrix_raw(field, flavor)
        if not is_symplectic(field, transpose(lin), j):
            raise NotSymplectic("linear part does not preserve the pairing")
        lin_fracs = tuple(tuple(Fraction(v) for v in row) for row in lin)
        gen_lin = ElementaryGen(SP, lin_fracs)
        word_gens.append(gen_lin)
        inv_endo = gen_endo(gen_lin.inverse(), "P", flavor, field)
        residual = inv_endo.compose(residual, maxdeg)
    report = {"stages": {}, "tie_break": tie_break}
    for k in range(2, n_target):
        devs = [
            (img - Poly.generator(field, flavor, i)).homogeneous_part(k)
            for i, img in enumerate(residual.images)
        ]
        if all(d.is_zero for d in devs):
            report["stages"][k] = 0
            continue
        h = deviation_hamiltonian(devs, k)
        terms = waring_decompose(h, tie_break)
        report["stages"][k] = len(terms)
        for term in terms:
            word_gens.extend(corrector(term, flavor, field))
            residual = undo_shift(residual, term, maxdeg)
        left = endo_rank(residual)
        if left <= k:
            raise StageStall(f"stage {k} left a degree {left} deviation")
    final = endo_rank(residual)
    report["residual_height"] = None if final == float("inf") else final
    return TameWord("symplectic", flavor.pairs, word_gens), report


def stage_prefix(word, report, n_target):
    """The word approximate returns at order n_target, cut from the word
    and report of a higher order for the same endo.

    Stage k reads only the degree-k residual, so the stages below
    n_target run alike at both orders: the prefix is the linear letter,
    if there is one, then the correctors of those stages.
    """
    stages = report["stages"]
    linear = len(word) - CORRECTOR_LETTERS * sum(stages.values())
    kept = sum(count for k, count in stages.items() if k < n_target)
    return TameWord(word.kind, word.n, word.gens[: linear + CORRECTOR_LETTERS * kept])
