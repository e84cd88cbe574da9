"""The one matrix module: dense matrices and the symplectic form J.

Matrices are plain lists of rows of at most a few dozen entries.
identity_matrix, transpose and mat_inv (Gauss-Jordan, first nonzero
pivot) work on raw values of any field.  mat_mul, is_symplectic,
symplectic_inverse and symplectic_completion work on Q values with the
plain operators; the last three read J as the signed permutation of
flavors.partner: row i holds sign_i at column s_i, so
a^T J b = sum_i sign_i a_i b_(s_i).
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul as _mul

from .errors import SingularLinearPart, WeyliftError, ZeroCovector
from .fields import QQ
from .flavors import partner


def identity_matrix(field, n):
    z, o = field.zero(), field.one()
    return [[o if i == j else z for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_mul(a, b):
    """a b with the plain operators, its entries Q raw values (fields)."""
    cols = list(zip(*b))
    return [[QQ.from_fraction(sum(map(_mul, row, col))) for col in cols] for row in a]


def mat_inv(field, a):
    n = len(a)
    work = [list(row) + list(idrow) for row, idrow in zip(a, identity_matrix(field, n))]
    for col in range(n):
        pivot = next(
            (r for r in range(col, n) if not field.is_zero(work[r][col])), None
        )
        if pivot is None:
            raise SingularLinearPart("matrix is not invertible")
        work[col], work[pivot] = work[pivot], work[col]
        inv = field.inv(work[col][col])
        work[col] = [field.mul(inv, x) for x in work[col]]
        for r in range(n):
            if r == col or field.is_zero(work[r][col]):
                continue
            factor = work[r][col]
            work[r] = [
                field.sub(x, field.mul(factor, y)) for x, y in zip(work[r], work[col])
            ]
    return [row[n:] for row in work]


def _layout(g):
    """(s, sign) on g slots, read from partner once per call."""
    return zip(*(partner(i, g) for i in range(g)))


def _pairing(conj, sign):
    return lambda a, b: sum(sg * x * b[s] for x, s, sg in zip(a, conj, sign))


def is_symplectic(a):
    """A^T J A = J, one column pair (r, c) at a time.  Both sides are
    antisymmetric, so r < c is the whole check."""
    g = len(a)
    conj, sign = _layout(g)
    pairing, cols = _pairing(conj, sign), transpose(a)
    return all(
        pairing(cols[r], cols[c]) == (sign[r] if c == conj[r] else 0)
        for r in range(g) for c in range(r + 1, g)
    )


def symplectic_inverse(a):
    """For A in Sp, A^(-1) = -J A^T J.  J is a signed permutation and s an
    involution, so entry (i, r) is sign_i sign_r A[s_r][s_i]."""
    conj, sign = _layout(len(a))
    return [
        [x if si == sr else -x for x, sr in zip((a[s][t] for s in conj), sign)]
        for t, si in zip(conj, sign)
    ]


def symplectic_completion(covector):
    """Matrix A with A symplectic and apply(linear(A), c . g) = first momentum.

    Builds a symplectic basis B whose first momentum column is the
    covector and returns (B^T)^(-1) as Q raw values (fields): the steps
    run on Python ints, leaving them for a Fraction only where the scale
    divides inexactly.
    """
    c = list(covector)
    if not any(c):
        raise ZeroCovector("covector must be nonzero")
    g = len(c)
    n = g // 2
    pairing = _pairing(*_layout(g))
    basis_v = [c]
    basis_u = []
    # Candidate pool: standard basis vectors.
    pool = [[int(r == s) for r in range(g)] for s in range(g)]

    def project(z):
        # Strip the span of each completed pair: with <u, v> = -1 the
        # symplectic projection is z + <z,v> u - <z,u> v.
        for u, v in zip(basis_u, basis_v):
            zv = pairing(z, v)
            zu = pairing(z, u)
            z = [a + zv * b - zu * c for a, b, c in zip(z, u, v)]
        return z

    while len(basis_v) < n or len(basis_u) < n:
        if len(basis_u) < len(basis_v):
            v = basis_v[len(basis_u)]
            w = next((zc for zc in map(project, pool) if pairing(zc, v)), None)
            if w is None:
                raise WeyliftError("failed to complete a symplectic basis")
            q = -pairing(w, v)
            basis_u.append([a // q if a % q == 0 else Fraction(a, q) for a in w])
        else:
            z = next((zc for zc in map(project, pool) if any(zc)), None)
            if z is None:
                raise WeyliftError("failed to extend a symplectic basis")
            basis_v.append(z)
    cols = basis_u + basis_v
    if not is_symplectic(transpose(cols)):
        raise WeyliftError("completion produced a non-symplectic basis")
    return [[QQ.from_fraction(x) for x in row] for row in symplectic_inverse(cols)]
