"""Exact linear algebra over a coefficient field.

This is the only code that multiplies, powers or eliminates matrices of
scalars.  Matrices are lists of row lists of scalars (Fractions over QQ,
residues over GF(p)).  One Gauss-Jordan elimination, ``_eliminate``, gives
the reduced rows, the pivot columns and the signed pivot product, and
``rref``, ``rank``, ``nullspace``, ``inv`` and ``det`` read their answers
off it, for every field and size.  There is no separate integer path: QQ
matrices are eliminated exactly over Fractions.

Arrays of residues have one product, ``matmul_modp``: exact mod p for
int64 entries below 2^31 (one product while no sum of products can reach
2^63, else one factor split into 16-bit halves) and for Python ints in an
object array above.  ``modp_mat_pow`` is a loop over it.  ``rref_modp`` is
the numpy twin of ``_eliminate`` on int64 arrays.  Only callers that
already hold arrays call these: the batched search screen, and the
structure kernels of ``clifford``, which alone decide when a GF(p) matrix
becomes an array; ``fits_int64`` is the bound that decision reads.

numpy is needed only by this array half, and it is imported by the
functions that use it, on first call.  So ``equiv`` and ``irreducible`` at
t >= 3 over GF(p < 2^31) (and ``irreducible`` over QQ, whose algebra span
is taken mod 2^31 - 1), Hom dimensions and ``search`` load it;
``ulrich-check``, ``verify``, ``det``, ``cohomology``, ``construct`` and
``specialize`` never do.
"""
from __future__ import annotations

from operator import mul

from .fields import Field

_INT64_BOUND = 1 << 63


def fits_int64(p: int) -> bool:
    """Whether residues mod p have pairwise products that fit in int64,
    i.e. p < 2^31: the bound below which arrays of residues are int64."""
    return p < 1 << 31


def modp_dtype(p: int):
    """Array dtype for residues mod p whose pairwise products stay exact."""
    import numpy as np
    return np.int64 if fits_int64(p) else object


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


def rref_modp(a, p: int) -> tuple:
    """The numpy twin of ``_eliminate`` over GF(p), p < 2^31, on an int64
    array with entries of absolute value below p, which it reduces in place
    and returns with the pivot columns and the signed pivot product.

    A pivot row is zero left of its pivot column, so each update touches
    only the columns from the pivot on.  Each pivot step adds less than p^2
    to any entry, so when (cols + 1) * p^2 < 2^63 the updates skip the
    reduction mod p and one remainder at the end makes the rows canonical;
    only the pivot column and pivot row are reduced as they are read.
    """
    import numpy as np
    rows, cols = a.shape
    lazy = (cols + 1) * p * p < _INT64_BOUND
    if not lazy:
        np.remainder(a, p, out=a)
    r = 0
    pivots = []
    product = 1
    for c in range(cols):
        col = a[:, c] % p
        hit = col.nonzero()[0]
        k = np.searchsorted(hit, r)
        if k == hit.size:
            continue
        pr = int(hit[k])
        if pr != r:
            a[[r, pr], c:] = a[[pr, r], c:]
            col[[r, pr]] = col[[pr, r]]
            hit = col.nonzero()[0]
            product = -product % p
        pivot = int(col[r])
        product = product * pivot % p
        top = a[r, c:] % p
        if pivot != 1:
            top *= pow(pivot, p - 2, p)
            top %= p
        a[r, c:] = top
        hit = hit[hit != r]
        if hit.size:
            block = a[hit, c:]
            block -= col[hit, None] * top
            if not lazy:
                block %= p
            a[hit, c:] = block
        pivots.append(c)
        r += 1
        if r == rows:
            break
    np.remainder(a, p, out=a)
    return a, pivots, product


def rref(field: Field, mat: list) -> tuple[list, list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    reduced, pivots, _ = _eliminate(field, mat)
    return reduced, pivots


def rank(field: Field, mat: list) -> int:
    return len(_eliminate(field, mat)[1])


# The benchmark tracer (perfbench/tracer.py) still wraps this name.
rank_field_matrix = rank


def nullspace(field: Field, mat: list) -> list[list]:
    """Canonical right-nullspace basis (one vector per free column)."""
    cols = len(mat[0]) if mat else 0
    reduced, pivots, _ = _eliminate(field, mat)
    pivot_set = set(pivots)
    basis = []
    for j in range(cols):
        if j in pivot_set:
            continue
        v = [field.zero] * cols
        v[j] = field.one
        for row, pc in zip(reduced, pivots):
            v[pc] = field.neg(row[j])
        basis.append(v)
    return basis


def det(field: Field, mat: list):
    """Determinant of a square matrix: its signed pivot product, or zero."""
    _, pivots, product = _eliminate(field, mat)
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


def matmul_modp(a, b, p: int):
    """a @ b mod p, batched over leading axes, for entries in [0, p).

    One product when it is exact: in an object array of Python ints, and in
    int64 when every sum of products is below 2^63, i.e. inner * (p-1)^2 <
    2^63.  Past that bound (p near 2^31) b is split as 2^16 * (b >> 16) +
    (b & 0xFFFF): each half's products are below 2^47, so their sums stay
    exact for inner dimension below 2^16.
    """
    if a.dtype == object or a.shape[-1] * (p - 1) ** 2 < _INT64_BOUND:
        return a @ b % p
    return ((a @ (b >> 16)) % p * 65536 + a @ (b & 0xFFFF)) % p


def modp_mat_pow(a, d: int, p: int):
    """a^d over GF(p) for d >= 1, batched over the leading axes of an integer
    array of shape (..., t, t) with entries in [0, p): int64 where
    ``fits_int64(p)``, an object array of Python ints above.  Kept by this
    name because the benchmark tracer wraps it.
    """
    import numpy as np
    a = np.asarray(a, dtype=modp_dtype(p))
    out = a
    for _ in range(d - 1):
        out = matmul_modp(out, a, p)
    return out
