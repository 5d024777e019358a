import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import cliffrep as cr
from cliffrep.errors import (ExponentOverflow, InputError,
                             MatrixFactorizationError, NonLinearEntry)
from cliffrep.pencil import power_coefficients
from cliffrep.poly import EXP_CAP
from conftest import paper_f, paper_phi, quadric_ring, random_linear_matrix


def test_assemble_paper_example(qq):
    ring = quadric_ring(qq)
    mats = [
        [[1, 0], [0, 0]],
        [[0, 1], [0, 0]],
        [[0, 0], [1, 0]],
        [[0, 0], [0, 1]],
    ]
    pencil = cr.LinearPencil(
        ring, [[[ring.const(x) for x in row] for row in m] for m in mats])
    assert cr.mat_eq(cr.assemble(pencil), paper_phi(ring))


def test_assemble_one_by_one(qq):
    ring = cr.PolyRing(qq, 0, 2)
    pencil = cr.LinearPencil(ring, [[[ring.const(2)]], [[ring.const(3)]]])
    assert cr.assemble(pencil)[0][0] == cr.parse_poly("2*y0 + 3*y1", ring)


def test_assemble_zero_pencil(qq):
    ring = cr.PolyRing(qq, 0, 3)
    pencil = cr.LinearPencil(ring, [cr.zero_matrix(ring, 2) for _ in range(3)])
    assert cr.mat_eq(cr.assemble(pencil), cr.zero_matrix(ring, 2))


def test_extract_paper_example(qq):
    ring = quadric_ring(qq)
    pencil = cr.extract(paper_phi(ring))
    expected = [
        [[1, 0], [0, 0]],
        [[0, 1], [0, 0]],
        [[0, 0], [1, 0]],
        [[0, 0], [0, 1]],
    ]
    for mat, want in zip(pencil.matrices, expected):
        for row, wrow in zip(mat, want):
            assert [e.constant() for e in row] == [ring.field.of(w) for w in wrow]


def test_extract_base_parametrized(qq):
    ring = cr.PolyRing(qq, 1, 1)
    matrix = [[cr.parse_poly("t1*y0", ring)]]
    pencil = cr.extract(matrix)
    assert pencil.matrices[0][0][0] == cr.parse_poly("t1", ring)


def test_extract_rejects_nonlinear(qq):
    ring = cr.PolyRing(qq, 0, 1)
    matrix = [[cr.parse_poly("y0^2", ring), ring.zero()],
              [ring.zero(), cr.parse_poly("y0", ring)]]
    with pytest.raises(NonLinearEntry) as info:
        cr.extract(matrix)
    assert info.value.position == (0, 0)


def test_round_trips_random(qq, gf7):
    rng = random.Random(12)
    for field in (qq, gf7):
        ring = cr.PolyRing(field, 0, 3)
        for _ in range(40):
            matrix = random_linear_matrix(ring, rng.randint(1, 3), rng)
            pencil = cr.extract(matrix)
            assert cr.mat_eq(cr.assemble(pencil), matrix)
            assert cr.extract(cr.assemble(pencil)) == pencil


def test_pencil_power_paper_square(qq):
    ring = quadric_ring(qq)
    pencil = cr.extract(paper_phi(ring))
    square = cr.pencil_power(pencil, 2)
    expected = [["y0^2 + y1*y2", "y0*y1 + y1*y3"],
                ["y2*y0 + y3*y2", "y2*y1 + y3^2"]]
    for i in range(2):
        for j in range(2):
            assert square[i][j] == cr.parse_poly(expected[i][j], ring)
    # this is visibly NOT f*I: the bare matrix is no Clifford representation
    assert square[0][0] != paper_f(ring)


def test_pencil_power_block_is_scalar(qq, block_rep_qq):
    square = cr.pencil_power(block_rep_qq.pencil, 2)
    f = block_rep_qq.f
    assert cr.mat_eq(square, cr.scalar_matrix(f, 4))


def test_pencil_power_one_is_assemble(qq):
    ring = cr.PolyRing(qq, 0, 2)
    rng = random.Random(5)
    matrix = random_linear_matrix(ring, 2, rng)
    pencil = cr.extract(matrix)
    assert cr.mat_eq(cr.pencil_power(pencil, 1), cr.assemble(pencil))


def test_pencil_power_matches_poly_product(qq, gf7):
    # the coefficient-matrix power against the left-to-right Poly product
    rng = random.Random(41)
    pencils = []
    for field in (qq, gf7):
        ring = cr.PolyRing(field, 0, 3)
        pencils += [cr.extract(random_linear_matrix(ring, rng.randint(1, 3), rng))
                    for _ in range(8)]
    ring = cr.PolyRing(qq, 1, 2)
    pencils.append(cr.extract(
        [[cr.parse_poly("t1*y0 + y1", ring), cr.parse_poly("y0 - t1^2*y1", ring)],
         [cr.parse_poly("2*y1", ring), cr.parse_poly("t1*y0 - 3*t1*y1", ring)]]))
    for pencil in pencils:
        matrix = cr.assemble(pencil)
        product = matrix
        for d in (1, 2, 3):
            assert cr.mat_eq(cr.pencil_power(pencil, d), product)
            product = cr.mat_mul(product, matrix)


def dense_mul(field, a, b):
    """A dense product of coefficient matrices: the oracle's."""
    cols = list(zip(*b))
    if field.kind == "GF":
        return [[sum(x * y for x, y in zip(row, col)) % field.p for col in cols]
                for row in a]
    return [[sum((x * y for x, y in zip(row, col) if x and y), field.zero)
             for col in cols] for row in a]


def dense_power(pencil, d):
    """The coefficients of M^d by dense products, left to right, summed per
    monomial with ``field.add``: the oracle for ``power_coefficients``."""
    field = pencil.ring.field
    base = pencil.coefficients
    power = base
    for _ in range(d - 1):
        out = {}
        for alpha, x in power.items():
            for beta, y in base.items():
                key = tuple(a + b for a, b in zip(alpha, beta))
                if any(e >= EXP_CAP for e in key):
                    raise ExponentOverflow(f"exponent exceeds {EXP_CAP - 1} in product")
                prod = dense_mul(field, x, y)
                acc = out.get(key)
                out[key] = prod if acc is None else [
                    [field.add(u, v) for u, v in zip(r, s)] for r, s in zip(acc, prod)]
        power = {k: m for k, m in out.items() if any(any(row) for row in m)}
    return power


def typed(coefficients):
    """Keys in order, entries with their types: int 0 and Fraction(0) differ."""
    return [(k, [[(type(x), x) for x in row] for row in m])
            for k, m in coefficients.items()]


POWER_FIELDS = [cr.prime_field(3), cr.prime_field(7), cr.prime_field((1 << 61) - 1),
                cr.rationals()]


@settings(derandomize=True, max_examples=80, deadline=None)
@given(data=st.data(), field=st.sampled_from(POWER_FIELDS), size=st.integers(1, 5),
       base_vars=st.integers(0, 1), fiber_vars=st.integers(1, 3),
       density=st.sampled_from([0, 0.2, 0.5, 1]), d=st.integers(1, 4))
def test_power_coefficients_match_dense_power(data, field, size, base_vars, fiber_vars,
                                              density, d):
    # sparse to dense generators, one of them possibly all zero, over a base
    # variable whose exponents make several products share a monomial
    ring = cr.PolyRing(field, base_vars, fiber_vars)
    rng = data.draw(st.randoms(use_true_random=False))
    zero_generator = data.draw(st.integers(-1, fiber_vars - 1))
    coefficients = {}
    for i in range(fiber_vars):
        for e in range(base_vars + 1 if base_vars else 1):
            key = tuple(int(k == i) for k in range(fiber_vars)) + (e,) * base_vars
            coefficients[key] = [
                [0 if i == zero_generator or rng.random() >= density
                 else field.of(rng.choice([1, -1, 2, Fraction(1, 2)]))
                 for _ in range(size)] for _ in range(size)]
    pencil = cr.LinearPencil.from_coefficients(ring, size, coefficients)
    assert typed(power_coefficients(pencil, d)) == typed(dense_power(pencil, d))


@pytest.mark.parametrize("exponent, d", [(40000, 2), (30000, 3)])
def test_power_overflow_message(qq, exponent, d):
    # t1^exponent reaches the cap only at the d-th factor, after pairs that fit
    ring = cr.PolyRing(qq, 1, 2)
    pencil = cr.LinearPencil.from_coefficients(
        ring, 2, {(1, 0, 0): [[1, 0], [0, 1]], (0, 1, exponent): [[0, 1], [1, 0]]})
    with pytest.raises(ExponentOverflow) as want:
        dense_power(pencil, d)
    with pytest.raises(ExponentOverflow) as got:
        power_coefficients(pencil, d)
    assert str(got.value) == str(want.value) == "exponent exceeds 65535 in product"
    assert power_coefficients(pencil, d - 1)

def test_power_entries_y_homogeneous(gf7):
    ring = cr.PolyRing(gf7, 0, 3)
    rng = random.Random(77)
    for _ in range(20):
        pencil = cr.extract(random_linear_matrix(ring, 2, rng))
        for d in (2, 3):
            for row in cr.pencil_power(pencil, d):
                for entry in row:
                    assert entry.is_zero() or entry.is_y_homogeneous(d)


def test_specialize_simple(qq):
    ring = cr.PolyRing(qq, 1, 2)
    pencil = cr.LinearPencil(
        ring, [[[cr.parse_poly("t1", ring)]], [[ring.one()]]])
    fiber = cr.specialize(pencil, {"t1": 5})
    assert fiber.ring.base_count == 0
    assert fiber.matrices[0][0][0].constant() == 5
    assert fiber.matrices[1][0][0].constant() == 1


def test_specialize_requires_full_assignment(qq):
    ring = cr.PolyRing(qq, 2, 2)
    pencil = cr.LinearPencil(ring, [cr.zero_matrix(ring, 1) for _ in range(2)])
    with pytest.raises(InputError):
        cr.specialize(pencil, {"t1": 1})


def test_specialize_commutes_with_power(qq):
    # (specialize then power) == (power then evaluate) on random 2x2 pencils
    ring = cr.PolyRing(qq, 1, 2)
    rng = random.Random(31)
    for _ in range(100):
        mats = []
        for _ in range(2):
            mat = [[ring.const(rng.randint(-3, 3)) +
                    cr.parse_poly("t1", ring).scale(rng.randint(-3, 3))
                    for _ in range(2)] for _ in range(2)]
            mats.append(mat)
        pencil = cr.LinearPencil(ring, mats)
        point = {"t1": rng.randint(-5, 5)}
        fiber = cr.specialize(pencil, point)
        left = cr.pencil_power(fiber, 2)
        right = [[entry.evaluate(point).map_to(fiber.ring) for entry in row]
                 for row in cr.pencil_power(pencil, 2)]
        assert cr.mat_eq(left, right)


def test_mf_verify_paper_pair(qq):
    ring = quadric_ring(qq)
    phi = paper_phi(ring)
    psi = [[cr.parse_poly(s, ring) for s in row]
           for row in (("y3", "-y1"), ("-y2", "y0"))]
    assert cr.mf_verify(phi, psi, paper_f(ring)).passed


def test_mf_verify_one_by_one(qq):
    ring = cr.PolyRing(qq, 0, 1)
    phi = [[ring.var("y0")]]
    assert cr.mf_verify(phi, phi, cr.parse_poly("y0^2", ring)).passed


def test_mf_verify_failure_witness(qq):
    ring = quadric_ring(qq)
    phi = paper_phi(ring)
    report = cr.mf_verify(phi, phi, paper_f(ring))
    assert not report.passed
    name, pos, diff = report.witness
    assert pos == (0, 0)
    assert diff == cr.parse_poly("y0^2 + y1*y2", ring) - paper_f(ring)


def test_mfpair_validates(qq):
    ring = quadric_ring(qq)
    phi = paper_phi(ring)
    cr.MFPair(phi, cr.adjugate(phi), paper_f(ring))
    with pytest.raises(MatrixFactorizationError):
        cr.MFPair(phi, phi, paper_f(ring))
