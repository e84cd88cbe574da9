"""Small dense matrix helpers over an arbitrary coefficient field.

Matrices are plain lists of rows of raw field values.  Everything here
is at most a few dozen rows, so Gauss-Jordan with first-nonzero pivoting
is plenty.
"""

from __future__ import annotations

from .errors import SingularLinearPart


def identity_matrix(field, n):
    z, o = field.zero(), field.one()
    return [[o if i == j else z for j in range(n)] for i in range(n)]


def zero_matrix(field, rows, cols):
    z = field.zero()
    return [[z for _ in range(cols)] for _ in range(rows)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_mul(field, a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = zero_matrix(field, n, m)
    for i in range(n):
        row = a[i]
        acc = out[i]
        for t in range(k):
            x = row[t]
            if field.is_zero(x):
                continue
            brow = b[t]
            for j in range(m):
                acc[j] = field.add(acc[j], field.mul(x, brow[j]))
    return out


def mat_eq(field, a, b):
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if len(ra) != len(rb):
            return False
        for x, y in zip(ra, rb):
            if not field.is_zero(field.sub(x, y)):
                return False
    return True


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


def omega_matrix_raw(field, flavor):
    """The structure matrix of the paired bracket as raw field values."""
    g = flavor.main_count
    out = zero_matrix(field, g, g)
    for i in range(g):
        for j in range(g):
            w = flavor.omega(i, j)
            if w:
                out[i][j] = field.from_int(w)
    return out


def is_symplectic(field, a, j):
    at = transpose(a)
    return mat_eq(field, mat_mul(field, mat_mul(field, at, j), a), j)


def signed_permutation(field, j):
    """(s, plus) for a signed permutation J: row i holds +1 or -1 at
    column s_i, and plus_i says which."""
    g = len(j)
    s = [next(c for c in range(g) if not field.is_zero(j[i][c])) for i in range(g)]
    return s, [j[i][s[i]] == field.one() for i in range(g)]


def symplectic_inverse(field, a, j):
    """For paired J with J^2 = -1: A in Sp gives A^(-1) = -J A^T J.

    J is a signed permutation: row i holds sign_i at column s_i, and s is
    an involution, so -J A^T J has entry (i, r) = sign_i sign_r A[s_r][s_i].
    """
    g = len(j)
    s, plus = signed_permutation(field, j)
    return [
        [a[s[r]][s[i]] if plus[i] == plus[r] else field.neg(a[s[r]][s[i]]) for r in range(g)]
        for i in range(g)
    ]
