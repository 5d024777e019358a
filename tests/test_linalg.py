"""The one elimination in linalg: its numpy twin, and the laws every answer
read off it must obey over QQ and GF(p); the one array product."""
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
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


# 1..12 rows and columns: the array kernels of clifford rely on the twin
# giving the list elimination's rows, pivots and product on every shape
@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data(), p=st.sampled_from(TWIN_PRIMES),
       rows=st.integers(1, 12), cols=st.integers(1, 12))
def test_eliminate_matches_numpy_twin(data, p, rows, cols):
    field = cr.prime_field(p)
    mat = data.draw(matrices(field, rows, cols))
    reduced, pivots, product = linalg._eliminate(field, mat)
    arr, twin_pivots, twin_product = linalg.rref_modp(np.array(mat, dtype=np.int64), p)
    assert arr.tolist() == reduced
    assert twin_pivots == pivots
    assert twin_product == product


class _NoArrays:
    """Stands in for rref_modp: any call fails the test."""
    def __call__(self, *args):
        raise AssertionError("the list API called rref_modp")


@pytest.mark.parametrize("n", [12, 16])
@pytest.mark.parametrize("rank_drop", [0, 3])
def test_list_api_never_hands_off_to_arrays(monkeypatch, n, rank_drop):
    # sizes where an array elimination might pay: the list API must still
    # answer on lists alone, and agree with the twin on the same input
    p = 101
    field = cr.prime_field(p)
    rng = random.Random(n + rank_drop)

    def block(rows, cols):
        return [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]

    mat = block(n, n)
    if rank_drop:
        mat = linalg.mat_mul(field, block(n, n - rank_drop), block(n - rank_drop, n))
    augmented = [row + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "rref_modp", _NoArrays())
        # linalg imports numpy where it uses it: blocked, any import raises
        patch.setitem(sys.modules, "numpy", None)
        got = (linalg.rref(field, mat), linalg.rank(field, mat),
               linalg.nullspace(field, mat), linalg.det(field, mat),
               linalg.inv(field, mat))
    arr, pivots, product = linalg.rref_modp(np.array(mat, dtype=np.int64), p)
    rows = arr.tolist()
    kernel = []
    for j in range(n):
        if j in pivots:
            continue
        v = [0] * n
        v[j] = 1
        for row, pc in zip(rows, pivots):
            v[pc] = -row[j] % p
        kernel.append(v)
    inverse = linalg.rref_modp(np.array(augmented, dtype=np.int64), p)[0][:, n:]
    full = len(pivots) == n
    assert len(pivots) == n - rank_drop
    assert got == ((rows, pivots), len(pivots), kernel, product if full else 0,
                   inverse.tolist() if full else None)


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



def int_product(a, b, p):
    """a*b mod p in Python ints, the reference for the array product."""
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)]
            for row in a]


@pytest.mark.parametrize("p", [(1 << 31) - 1, (1 << 61) - 1])
def test_array_product_is_exact(p):
    # all entries p - 1: a plain int64 sum of 32 such products overflows
    full = [[p - 1] * 32 for _ in range(32)]
    rng = random.Random(p)
    batch = [[[rng.randrange(p) for _ in range(32)] for _ in range(32)]
             for _ in range(3)] + [full]
    a = np.array(batch, dtype=linalg.modp_dtype(p))
    got = linalg.matmul_modp(a, a[::-1], p)
    assert got.tolist() == [int_product(x, y, p) for x, y in zip(batch, batch[::-1])]
    # modp_mat_pow is a loop over the product, int64 or object array alike
    cube = linalg.modp_mat_pow(a, 3, p)
    assert cube.dtype == (np.int64 if p < 1 << 31 else object)
    assert cube.tolist() == [int_product(int_product(x, x, p), x, p) for x in batch]


@pytest.mark.parametrize("p, inner", [
    ((1 << 31) - 1, 2),  # 2 * (p - 1)^2 < 2^63: one int64 product
    ((1 << 31) - 1, 3),  # past the bound: the 16-bit split
    (1073741789, 8),     # the largest prime below 2^30, on each side
    (1073741789, 9),
    (101, 64),
])
def test_array_product_on_both_sides_of_the_int64_bound(p, inner):
    # all entries p - 1 make every sum of products as large as it can be
    single = inner * (p - 1) ** 2 < 1 << 63
    assert single == (inner in (2, 8, 64))
    rng = random.Random(inner)
    rows = [[p - 1] * inner] + [[rng.randrange(p) for _ in range(inner)]
                                for _ in range(3)]
    cols = [[p - 1] * 5] * inner
    got = linalg.matmul_modp(np.array(rows, dtype=np.int64),
                             np.array(cols, dtype=np.int64), p)
    assert got.dtype == np.int64
    assert got.tolist() == int_product(rows, cols, p)


def all_fractions(value):
    if isinstance(value, list):
        return all(map(all_fractions, value))
    return isinstance(value, Fraction)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data(), rows=st.integers(1, 6), cols=st.integers(1, 6))
def test_qq_int_input_gives_the_fraction_answers(data, rows, cols):
    # ints are exact rationals: no float may come out of an inverse
    ints = data.draw(st.lists(st.lists(st.sampled_from([0, 0, 1, -1, 2, 3, -5]),
                                       min_size=cols, max_size=cols),
                              min_size=rows, max_size=rows))
    fractions = [[Fraction(x) for x in row] for row in ints]
    ops = (linalg.nullspace, linalg.det, linalg.inv) if rows == cols else (
        linalg.nullspace,)
    for op in ops:
        got = op(QQ, ints)
        assert got == op(QQ, fractions)
        assert got is None or all_fractions(got)

