"""Exact linear algebra over a coefficient field.

This is the only code that multiplies, powers or eliminates matrices of
scalars.  Matrices are lists of row lists of scalars (Fractions over QQ,
residues over GF(p)).  One Gauss-Jordan elimination, ``_eliminate``, gives
the reduced rows, the pivot columns and the signed pivot product, and
``rref``, ``rank``, ``nullspace``, ``inv`` and ``det`` read their answers
off it.  Its numpy twin ``_rref_modp`` takes over for GF(p) with p < 2^31
on matrices of more than ``_LIST_MAX_CELLS`` cells, where array set-up no
longer costs more than the list loop.  There is no separate integer path:
QQ matrices are eliminated exactly over Fractions.

The one exception to lists is ``modp_mat_pow``, a batched power over integer
arrays of shape (..., t, t) in ``modp_dtype(p)``: int64 below 2^31, Python
ints in an object array above.
"""
from __future__ import annotations

from operator import mul

import numpy as np

from .fields import Field

_NP_LIMIT = 1 << 31  # products must fit in int64
# Measured per rank call at GF(101): lists win up to 8x8, numpy from 16x16.
_LIST_MAX_CELLS = 64


def modp_dtype(p: int):
    """Array dtype for residues mod p whose pairwise products stay exact."""
    return np.int64 if p < _NP_LIMIT else object


def _reduce(field: Field, mat: list):
    """(reduced rows, pivot columns, signed pivot product) of mat; the rows
    are an int64 array when the numpy twin ran, else lists."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    if field.kind == "GF" and field.p < _NP_LIMIT and rows * cols > _LIST_MAX_CELLS:
        return _rref_modp(np.array(mat, dtype=np.int64), field.p)
    return _eliminate(field, mat)


def _eliminate(field: Field, mat: list) -> tuple[list, list[int], object]:
    """Gauss-Jordan elimination: (reduced rows, pivot columns, signed pivot
    product).  The product is det(mat) when mat is square of full rank.

    Row updates skip the zero entries of the pivot row: a Fraction product
    costs far more than the test, and the matrices here are sparse.
    """
    p = field.p
    a = [list(row) for row in mat]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
    product, zero = field.one, field.zero
    for c in range(cols):
        r = len(pivots)
        pivot_row = next((i for i in range(r, rows) if a[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            a[r], a[pivot_row] = a[pivot_row], a[r]
            product = field.neg(product)
        pivot = a[r][c]
        product = field.mul(product, pivot)
        inv = field.inv(pivot)
        # a zero becomes the field's own zero, so an int input gives Fraction rows
        top = a[r] = [field.mul(x, inv) if x else zero for x in a[r]]
        for i, row in enumerate(a):
            f = row[c]
            if f and i != r:
                if p:
                    a[i] = [(x - f * y) % p if y else x for x, y in zip(row, top)]
                else:
                    a[i] = [x - f * y if y else x for x, y in zip(row, top)]
        pivots.append(c)
        if r + 1 == rows:
            break
    return a, pivots, product


def _rref_modp(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int], int]:
    """The numpy twin of ``_eliminate`` over GF(p), p < 2^31, on int64 rows."""
    a = a % p
    rows, cols = a.shape
    r = 0
    pivots = []
    product = 1
    for c in range(cols):
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
            product = -product % p
        pivot = int(a[r, c])
        product = product * pivot % p
        a[r] = a[r] * pow(pivot, p - 2, p) % p
        col = a[:, c].copy()
        col[r] = 0
        mask = col != 0
        if mask.any():
            a[mask] = (a[mask] - np.outer(col[mask], a[r])) % p
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots, product


def rref(field: Field, mat: list) -> tuple[list, list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    reduced, pivots, _ = _reduce(field, mat)
    if isinstance(reduced, np.ndarray):
        reduced = reduced.tolist()
    return reduced, pivots


def rank(field: Field, mat: list) -> int:
    return len(_reduce(field, mat)[1])


# The benchmark tracer (perfbench/tracer.py) still wraps this name.
rank_field_matrix = rank


def nullspace(field: Field, mat: list) -> list[list]:
    """Canonical right-nullspace basis (one vector per free column)."""
    cols = len(mat[0]) if mat else 0
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
    """Determinant of a square matrix: its signed pivot product, or zero."""
    _, pivots, product = _reduce(field, mat)
    return product if len(pivots) == len(mat) else field.zero


def inv(field: Field, mat: list) -> list | None:
    """Matrix inverse, or None if singular."""
    n = len(mat)
    a = [row[:] + [field.one if i == j else field.zero for j in range(n)]
         for i, row in enumerate(mat)]
    reduced, pivots = rref(field, a)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in reduced[:n]]


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


def modp_mat_pow(a: np.ndarray, d: int, p: int) -> np.ndarray:
    """a^d over GF(p) for d >= 1, batched over the leading axes of an integer
    array of shape (..., t, t) with entries in [0, p).

    Below ``_NP_LIMIT`` the entries are int64 and every product is reduced
    mod p before the t-term sum, so nothing overflows; larger p pass an
    object array of Python ints through the same code.  Kept by this name
    because the benchmark tracer wraps it.
    """
    a = np.asarray(a, dtype=modp_dtype(p))
    out = a
    for _ in range(d - 1):
        out = (out[..., :, :, None] * a[..., None, :, :] % p).sum(axis=-2) % p
    return out
