"""Exact linear algebra over a coefficient field.

This is the only code that multiplies, powers or eliminates matrices of
scalars.  Matrices are lists of row lists of scalars (Fractions over QQ,
residues over GF(p)).  Prime fields with p < 2^31 get a vectorized numpy
mod-p elimination; everything else runs the generic exact path.  Integer
matrices destined for QQ ranks use a mod-p certificate with a fraction-free
integer fallback, so results are exact in every case.
"""
from __future__ import annotations

from math import lcm
from operator import mul

import numpy as np

from .errors import InternalInconsistency
from .fields import Field, prime_field

_NP_LIMIT = 1 << 31  # products must fit in int64


def _use_numpy(field: Field, rows: int, cols: int) -> bool:
    return field.kind == "GF" and field.p < _NP_LIMIT and rows > 0 and cols > 0


def rref(field: Field, mat: list) -> tuple[list, list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    if _use_numpy(field, rows, cols):
        arr, pivots = _rref_modp(np.array(mat, dtype=np.int64), field.p)
        return arr.tolist(), pivots
    a = [row[:] for row in mat]
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if a[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        inv = field.inv(a[r][c])
        a[r] = [field.mul(x, inv) for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def _rref_modp(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    a = a % p
    rows, cols = a.shape
    r = 0
    pivots = []
    for c in range(cols):
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        a[r] = a[r] * pow(int(a[r, c]), p - 2, p) % p
        col = a[:, c].copy()
        col[r] = 0
        mask = col != 0
        if mask.any():
            a[mask] = (a[mask] - np.outer(col[mask], a[r])) % p
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def rank(field: Field, mat: list) -> int:
    if _use_numpy(field, len(mat), len(mat[0]) if mat else 0):
        return len(_rref_modp(np.array(mat, dtype=np.int64), field.p)[1])
    return len(rref(field, mat)[1])


def nullspace(field: Field, mat: list) -> list[list]:
    """Canonical right-nullspace basis (one vector per free column)."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    if not rows or not cols:
        basis = []
        for j in range(cols):
            v = [field.zero] * cols
            v[j] = field.one
            basis.append(v)
        return basis
    reduced, pivots = rref(field, mat)
    pivot_set = set(pivots)
    free = [j for j in range(cols) if j not in pivot_set]
    basis = []
    for j in free:
        v = [field.zero] * cols
        v[j] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(reduced[r][j])
        basis.append(v)
    return basis


def det(field: Field, mat: list):
    """Determinant by exact Gaussian elimination with division."""
    n = len(mat)
    a = [row[:] for row in mat]
    result = field.one
    for c in range(n):
        pivot_row = None
        for i in range(c, n):
            if a[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            return field.zero
        if pivot_row != c:
            a[c], a[pivot_row] = a[pivot_row], a[c]
            result = field.neg(result)
        pivot = a[c][c]
        result = field.mul(result, pivot)
        inv = field.inv(pivot)
        for i in range(c + 1, n):
            if a[i][c]:
                f = field.mul(a[i][c], inv)
                a[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(a[i], a[c])]
    return result


def inv(field: Field, mat: list) -> list | None:
    """Matrix inverse, or None if singular."""
    n = len(mat)
    a = [row[:] + [field.one if i == j else field.zero for j in range(n)]
         for i, row in enumerate(mat)]
    reduced, pivots = rref(field, a)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in reduced[:n]]


def mat_vec(field: Field, mat: list, vec: list) -> list:
    return [row[0] for row in mat_mul(field, mat, [[v] for v in vec])]


def mat_mul(field: Field, a: list, b: list) -> list:
    """Product a*b; each entry is one plain sum of products, reduced once mod p.

    Over QQ zero factors are skipped: a Fraction product costs far more than
    the test, and the matrices here are sparse.
    """
    cols = list(zip(*b))
    if field.kind == "GF":
        p = field.p
        return [[sum(map(mul, row, col)) % p for col in cols] for row in a]
    zero = field.zero
    return [[sum((x * y for x, y in zip(row, col) if x and y), zero)
             for col in cols] for row in a]


def modp_mat_pow(a: list, d: int, p: int) -> list:
    """a^d over GF(p) for d >= 1, with a given as plain ints."""
    field = prime_field(p)
    out = a
    for _ in range(d - 1):
        out = mat_mul(field, out, a)
    return out


# -- exact ranks of integer matrices (for rationals) ---------------------------

_CERT_PRIME = (1 << 31) - 1  # Mersenne prime; products fit in int64


def rank_int_matrix(mat: list) -> int:
    """Exact rank over QQ of an integer matrix.

    Fast path: rank mod 2^31-1 via numpy.  Ranks can only drop modulo a
    prime, so a full mod-p rank is already exact; otherwise fall back to
    fraction-free integer elimination.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    if not rows or not cols:
        return 0
    if max(abs(x) for row in mat for x in row) < _CERT_PRIME:
        modp = len(_rref_modp(np.array(mat, dtype=np.int64), _CERT_PRIME)[1])
        if modp == min(rows, cols):
            return modp
    return _rank_int_bareiss(mat)


def _rank_int_bareiss(mat: list) -> int:
    a = [list(row) for row in mat]
    rows, cols = len(a), len(a[0])
    r = 0
    prev = 1
    for c in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if a[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        pivot_val = a[r][c]
        pr = a[r]
        for i in range(r + 1, rows):
            ai = a[i]
            f = ai[c]
            for j in range(c + 1, cols):
                num = pivot_val * ai[j] - f * pr[j]
                q, rem = divmod(num, prev)
                if rem:
                    raise InternalInconsistency(
                        "fraction-free elimination must divide exactly")
                ai[j] = q
            ai[c] = 0
        prev = pivot_val
        r += 1
        if r == rows:
            break
    return r


def rank_field_matrix(field: Field, mat: list) -> int:
    """Rank over the field; integer QQ matrices take the certified fast path."""
    rows = len(mat)
    if not rows or not mat[0]:
        return 0
    if field.kind == "QQ":
        scaled = []
        for row in mat:
            denom = lcm(*(x.denominator for x in row))
            scaled.append([int(x * denom) for x in row])
        return rank_int_matrix(scaled)
    return rank(field, mat)
