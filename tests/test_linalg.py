"""The one elimination in linalg: its numpy twin, and the laws every answer
read off it must obey over QQ and GF(p)."""
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

import cliffrep as cr
from cliffrep import linalg

QQ = cr.rationals()
FIELDS = [QQ, cr.prime_field(101), cr.prime_field((1 << 61) - 1)]
TWIN_PRIMES = [2, 3, 101, (1 << 31) - 1]


def transpose(mat, cols):
    return [list(col) for col in zip(*mat)] if mat else [[] for _ in range(cols)]


def identity(field, n):
    return [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]


def scalars(field):
    """Zero often, so pivots need row swaps; over GF(p) also small residues
    and p - 1, so both cancellation and wrap-around occur."""
    if field.kind == "QQ":
        return st.one_of(st.just(field.zero),
                         st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))
    return st.one_of(st.just(field.zero), st.integers(0, min(3, field.p - 1)),
                     st.integers(max(0, field.p - 2), field.p - 1),
                     st.integers(0, field.p - 1))


@st.composite
def matrices(draw, field, rows, cols):
    """A dense rows x cols matrix, or a rank-deficient one: a product through
    a thinner middle, with some rows and columns zeroed."""
    entry = scalars(field)

    def block(r, c):
        return [[draw(entry) for _ in range(c)] for _ in range(r)]

    if not rows or not cols or draw(st.booleans()):
        return block(rows, cols)
    inner = draw(st.integers(0, min(rows, cols) - 1))
    mat = (linalg.mat_mul(field, block(rows, inner), block(inner, cols)) if inner
           else [[field.zero] * cols for _ in range(rows)])
    for i in draw(st.sets(st.integers(0, rows - 1), max_size=2)):
        mat[i] = [field.zero] * cols
    for j in draw(st.sets(st.integers(0, cols - 1), max_size=2)):
        for row in mat:
            row[j] = field.zero
    return mat


def cofactor_det(field, mat):
    """Laplace expansion along the first row: the reference for small det."""
    if not mat:
        return field.one
    total = field.zero
    for j, x in enumerate(mat[0]):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = field.mul(x, cofactor_det(field, minor))
        total = field.sub(total, term) if j % 2 else field.add(total, term)
    return total


# 1..12 rows and columns: shapes on both sides of the 64-cell list cut-off
@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data(), p=st.sampled_from(TWIN_PRIMES),
       rows=st.integers(1, 12), cols=st.integers(1, 12))
def test_eliminate_matches_numpy_twin(data, p, rows, cols):
    field = cr.prime_field(p)
    mat = data.draw(matrices(field, rows, cols))
    reduced, pivots, product = linalg._eliminate(field, mat)
    arr, twin_pivots, twin_product = linalg._rref_modp(np.array(mat, dtype=np.int64), p)
    assert arr.tolist() == reduced
    assert twin_pivots == pivots
    assert twin_product == product


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data(), field=st.sampled_from(FIELDS), n=st.integers(0, 5))
def test_det_matches_cofactor_expansion(data, field, n):
    a = data.draw(matrices(field, n, n))
    assert linalg.det(field, a) == cofactor_det(field, a)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data(), field=st.sampled_from(FIELDS), n=st.integers(1, 10))
def test_det_is_multiplicative(data, field, n):
    a = data.draw(matrices(field, n, n))
    b = data.draw(matrices(field, n, n))
    assert linalg.det(field, linalg.mat_mul(field, a, b)) == \
        field.mul(linalg.det(field, a), linalg.det(field, b))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data(), field=st.sampled_from(FIELDS), n=st.integers(1, 10))
def test_det_rank_and_inverse_agree(data, field, n):
    a = data.draw(matrices(field, n, n))
    full = linalg.rank(field, a) == n
    assert bool(linalg.det(field, a)) == full
    inverse = linalg.inv(field, a)
    assert (inverse is not None) == full
    if full:
        assert linalg.mat_mul(field, inverse, a) == identity(field, n)
        assert linalg.mat_mul(field, a, inverse) == identity(field, n)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data(), field=st.sampled_from(FIELDS),
       rows=st.integers(0, 12), cols=st.integers(0, 12))
def test_rank_of_transpose(data, field, rows, cols):
    a = data.draw(matrices(field, rows, cols))
    assert linalg.rank(field, a) == linalg.rank(field, transpose(a, cols))


def test_qq_rank_and_det_when_a_large_prime_divides_det():
    # det = 2^31 - 1, so the matrix has rank 1 mod that prime but rank 2 over QQ
    big = (1 << 31) - 1
    mat = [[Fraction(big - 1), Fraction(big - 2)], [Fraction(1), Fraction(2)]]
    assert linalg.rank(QQ, mat) == 2
    assert linalg.det(QQ, mat) == big
    assert linalg.det(cr.prime_field(big), [[x % big for x in map(int, row)]
                                            for row in mat]) == 0
