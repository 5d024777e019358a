import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cliffrep as cr
from cliffrep import constructors
from cliffrep.constructors import (_BLOCK_ENTRIES, _RandrangeStream,
                                   gamma_generators, solve_norm_equation)
from cliffrep.errors import (GammaConstructionError, InputError,
                             NondiagonalInput, NotHomogeneous,
                             RotationMismatch)
from cliffrep import linalg
from cliffrep.pencil import fiber_keys
from conftest import clock_rep, paper_f, paper_phi, quadric_ring


# -- hyperplanes -------------------------------------------------------------------


def test_hyperplane_single_variable(qq):
    ring = cr.PolyRing(qq, 0, 3)
    rep = cr.hyperplane_rep(cr.parse_poly("y0", ring))
    coeffs = [m[0][0].constant() for m in rep.pencil.matrices]
    assert coeffs == [1, 0, 0]
    assert rep.verified and rep.clifford_index == 1


def test_hyperplane_two_terms(qq):
    ring = cr.PolyRing(qq, 0, 2)
    rep = cr.hyperplane_rep(cr.parse_poly("2*y0 + 3*y1", ring))
    assert [m[0][0].constant() for m in rep.pencil.matrices] == [2, 3]


def test_hyperplane_with_base_parameter(qq):
    ring = cr.PolyRing(qq, 1, 2)
    rep = cr.hyperplane_rep(cr.parse_poly("t1*y0 + y1", ring))
    assert rep.pencil.matrices[0][0][0] == cr.parse_poly("t1", ring)
    assert rep.pencil.matrices[1][0][0] == ring.one()
    assert rep.verified  # identically in t1


def test_hyperplane_rejects_wrong_degree(qq):
    ring = cr.PolyRing(qq, 0, 2)
    with pytest.raises(NotHomogeneous):
        cr.hyperplane_rep(cr.parse_poly("y0^2", ring))
    with pytest.raises(NotHomogeneous):
        cr.hyperplane_rep(ring.zero())


# -- clock shift --------------------------------------------------------------------


def test_clock_shift_d2_matrix(qq):
    rep = clock_rep(qq, [1, -1])
    matrix = cr.assemble(rep.pencil)
    ring = rep.ring
    assert matrix[0][0].is_zero() and matrix[1][1].is_zero()
    assert matrix[0][1] == cr.parse_poly("y0 - y1", ring)
    assert matrix[1][0] == cr.parse_poly("y0 + y1", ring)
    square = cr.pencil_power(rep.pencil, 2)
    assert cr.mat_eq(square, cr.scalar_matrix(cr.parse_poly("y0^2 - y1^2", ring), 2))


def test_clock_shift_fermat_cubic(clock3_gf7):
    assert clock3_gf7.f == cr.parse_poly("y0^3 + y1^3", clock3_gf7.ring)
    assert clock3_gf7.verified and clock3_gf7.clifford_index == 1


def test_clock_shift_repeated_roots_flagged(qq):
    rep = clock_rep(qq, [1, 1])
    assert rep.verified
    assert rep.f == cr.parse_poly("y0^2 + 2*y0*y1 + y1^2", rep.ring)
    assert any("repeated roots" in note for note in rep.notes)


def test_clock_shift_needs_degree_two(qq):
    ring = cr.PolyRing(qq, 0, 2)
    form = cr.SplitBinaryForm.from_roots(ring, [5])
    with pytest.raises(InputError):
        cr.clock_shift_rep(form)


def test_clock_shift_det_sign(qq):
    # det = (sign of the d-cycle) * f: + for odd d, - for even d
    for d in range(2, 7):
        rep = clock_rep(qq, list(range(1, d + 1)))
        result = cr.det_factorization(rep)
        assert result.exponent == 1
        assert result.unit == qq.of((-1) ** (d - 1))


def test_split_binary_form_validates(qq):
    ring = cr.PolyRing(qq, 0, 2)
    form = cr.SplitBinaryForm.from_roots(ring, [1, -1])
    assert form.f == cr.parse_poly("y0^2 - y1^2", ring)
    with pytest.raises(InputError):
        cr.SplitBinaryForm(ring, (qq.of(1),), cr.parse_poly("y0 - y1", ring))


def test_split_binary_roots_scan():
    ring = cr.PolyRing(cr.prime_field(7), 0, 2)
    f = cr.parse_poly("y0^3 + y1^3", ring)
    assert sorted(cr.split_binary_roots(f)) == [1, 2, 4]
    with pytest.raises(InputError):
        cr.split_binary_roots(cr.parse_poly("y0^2 + y1^2", ring))  # -1 not square mod 7


def test_split_binary_roots_large_prime():
    # no cap on p: the roots come from gcds, not from a scan of GF(p)
    ring = cr.PolyRing(cr.prime_field(1000003), 0, 2)
    form = cr.SplitBinaryForm.from_roots(ring, [999983, 5, 0, 5])
    assert cr.split_binary_roots(form.f) == [0, 5, 5, 999983]
    with pytest.raises(InputError):
        cr.split_binary_roots(cr.parse_poly("y0^2 + y1^2", ring))  # -1 not a square


# -- gamma quadrics ------------------------------------------------------------------


def test_gamma_single_variable(qq):
    ring = cr.PolyRing(qq, 0, 1)
    rep = cr.gamma_quadric_rep(ring, [3])
    matrix = cr.assemble(rep.pencil)
    assert matrix[0][1] == cr.parse_poly("3*y0", ring)
    assert matrix[1][0] == cr.parse_poly("y0", ring)
    assert rep.size == 2 and rep.clifford_index == 1


def test_gamma_two_variables_gf5():
    ring = cr.PolyRing(cr.prime_field(5), 0, 2)
    rep = cr.gamma_quadric_rep(ring, [1, 1])
    assert rep.size == 2
    assert rep.verified


@pytest.mark.parametrize("coeffs", [[1, 1, 1], [1, -1, 2], [1, -1, 1]])
def test_gamma_three_variables_qq(qq, coeffs):
    ring = cr.PolyRing(qq, 0, 3)
    rep = cr.gamma_quadric_rep(ring, coeffs)
    assert rep.size == 4 and rep.clifford_index == 2


def test_gamma_four_variables(qq):
    ring = cr.PolyRing(qq, 0, 4)
    rep = cr.gamma_quadric_rep(ring, [1, -1, 1, -1])
    assert rep.size == 4 and rep.clifford_index == 2
    ring7 = cr.PolyRing(cr.prime_field(7), 0, 4)
    rep7 = cr.gamma_quadric_rep(ring7, [1, 1, 1, 1])
    assert rep7.size == 4


@pytest.mark.parametrize("fiber_vars,size",
                         [(1, 2), (2, 2), (3, 4), (4, 4), (5, 8), (6, 8), (7, 16)])
def test_gamma_size_from_fiber_variables(fiber_vars, size):
    # k fiber variables y0..y(k-1) give size 2^ceil(k/2)
    ring = cr.PolyRing(cr.prime_field(101), 0, fiber_vars)
    assert cr.gamma_quadric_rep(ring, range(1, fiber_vars + 1)).size == size


def test_gamma_generators_anticommute_directly():
    field = cr.prime_field(11)
    coeffs = [field.of(c) for c in (1, 2, 3, 4, 5)]
    gens = gamma_generators(field, coeffs)
    assert len(gens[0]) == 8  # 2^ceil(5/2)
    for i, g in enumerate(gens):
        square = linalg.mat_mul(field, g, g)
        for a in range(len(g)):
            for b in range(len(g)):
                assert square[a][b] == (coeffs[i] if a == b else 0)
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            ij = linalg.mat_mul(field, gens[i], gens[j])
            ji = linalg.mat_mul(field, gens[j], gens[i])
            for a in range(len(gens[i])):
                for b in range(len(gens[i])):
                    assert field.add(ij[a][b], ji[a][b]) == 0


def test_gamma_rejects_bad_inputs(qq):
    ring2 = cr.PolyRing(cr.prime_field(2), 0, 2)
    with pytest.raises(InputError):
        cr.gamma_quadric_rep(ring2, [1, 1])
    ring = cr.PolyRing(qq, 0, 2)
    with pytest.raises(InputError):
        cr.gamma_quadric_rep(ring, [1, 0])


def test_gamma_nonsplit_over_qq_fails_cleanly(qq):
    ring = cr.PolyRing(qq, 0, 2)
    with pytest.raises(GammaConstructionError):
        cr.gamma_quadric_rep(ring, [-1, -1])


def test_gamma_from_form_rejects_cross_terms(qq):
    ring = quadric_ring(qq)
    with pytest.raises(NondiagonalInput):
        cr.gamma_quadric_rep_from_form(paper_f(ring))
    diag = cr.parse_poly("y0^2 + y1^2 + y2^2 + y3^2", cr.PolyRing(cr.prime_field(5), 0, 4))
    rep = cr.gamma_quadric_rep_from_form(diag)
    assert rep.size == 4


def test_solve_norm_equation_samples():
    for p in (5, 7, 13, 101):
        field = cr.prime_field(p)
        for a in (1, 2, 3):
            for b in (1, 2, p - 1):
                x, z = solve_norm_equation(field, field.of(a), field.of(b))
                assert (x * x - a * z * z) % p == b % p
    qq = cr.rationals()
    for a, b in ((1, 5), (4, -3), (-1, 4), (2, 2), (3, 1)):
        x, z = solve_norm_equation(qq, qq.of(a), qq.of(b))
        assert x * x - a * z * z == b


# -- block lifts ----------------------------------------------------------------------


def test_block_from_mf_paper(qq, block_rep_qq):
    assert (block_rep_qq.size, block_rep_qq.d) == (4, 2)
    assert block_rep_qq.verified and block_rep_qq.clifford_index == 2
    # upper-right block is phi, lower-left is its adjugate
    ring = block_rep_qq.ring
    matrix = cr.assemble(block_rep_qq.pencil)
    phi = paper_phi(ring)
    for i in range(2):
        for j in range(2):
            assert matrix[i][2 + j] == phi[i][j]


def test_block_from_mf_one_by_one(qq):
    ring = cr.PolyRing(qq, 0, 1)
    phi = [[ring.var("y0")]]
    pair = cr.MFPair(phi, phi, cr.parse_poly("y0^2", ring))
    rep = cr.block_from_mf(pair)
    matrix = cr.assemble(rep.pencil)
    assert matrix[0][1] == ring.var("y0")
    assert matrix[1][0] == ring.var("y0")


def test_block_from_mf_determinant_power(qq, block_rep_qq):
    # det of the lift is f^t where t is the size of the factorization
    det = cr.poly_matrix_det(cr.assemble(block_rep_qq.pencil))
    f = block_rep_qq.f
    assert det == f * f


def test_cyclic_reduces_to_block(qq, block_rep_qq):
    ring = quadric_ring(qq)
    phi = paper_phi(ring)
    rep = cr.cyclic_block_rep([phi, cr.adjugate(phi)], paper_f(ring))
    assert rep.pencil == block_rep_qq.pencil


def test_cyclic_cube(qq):
    ring = cr.PolyRing(qq, 0, 1)
    factor = [[ring.var("y0")]]
    rep = cr.cyclic_block_rep([factor] * 3, cr.parse_poly("y0^3", ring))
    assert (rep.size, rep.d, rep.clifford_index) == (3, 3, 1)


def test_cyclic_rotation_mismatch(qq):
    ring = cr.PolyRing(qq, 0, 2)
    factors = [[[ring.var("y0")]], [[ring.var("y1")]], [[ring.var("y0")]]]
    with pytest.raises(RotationMismatch) as info:
        cr.cyclic_block_rep(factors, cr.parse_poly("y0^3", ring))
    assert info.value.index == 0


# -- random search -------------------------------------------------------------------


def test_random_search_finds_binary_quadric():
    ring = cr.PolyRing(cr.prime_field(3), 0, 2)
    f = cr.parse_poly("y0^2 - y1^2", ring)
    hits = cr.random_search(ring, f, 2, 2, seed=5, budget=20000)
    assert hits
    reference = clock_rep(cr.prime_field(3), [1, 2])
    assert any(cr.equivalence_test(h.rep, reference).verdict == "equivalent"
               for h in hits)
    for h in hits:
        assert h.rep.verified
        assert h.rep.size % h.rep.d == 0
        cr.det_factorization(h.rep)


def test_random_search_zero_budget():
    ring = cr.PolyRing(cr.prime_field(3), 0, 2)
    f = cr.parse_poly("y0^2 - y1^2", ring)
    assert cr.random_search(ring, f, 2, 2, seed=1, budget=0) == []


def test_random_search_rejects_bad_inputs(qq):
    ringq = cr.PolyRing(qq, 0, 2)
    with pytest.raises(InputError):
        cr.random_search(ringq, cr.parse_poly("y0^2 - y1^2", ringq), 2, 2, 0, 10)
    ring = cr.PolyRing(cr.prime_field(3), 0, 2)
    f = cr.parse_poly("y0^2 - y1^2", ring)
    with pytest.raises(InputError):
        cr.random_search(ring, f, 2, 3, seed=0, budget=10)


def test_random_search_deterministic():
    ring = cr.PolyRing(cr.prime_field(3), 0, 2)
    f = cr.parse_poly("y0^2 - y1^2", ring)
    first = cr.random_search(ring, f, 2, 2, seed=9, budget=5000)
    second = cr.random_search(ring, f, 2, 2, seed=9, budget=5000)
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert a.rep == b.rep and a.count == b.count


@settings(derandomize=True, max_examples=60, deadline=None)
@given(p=st.sampled_from([2, 3, 4, 5, 8, 101, 2**31 - 1, 2**32 - 5, 2**32 + 15,
                          2**61 - 1, 2**89 - 1]),
       seed=st.integers(0, 2**32),
       counts=st.lists(st.integers(0, _BLOCK_ENTRIES + 1), min_size=1, max_size=4))
def test_randrange_stream_matches_randrange(p, seed, counts):
    # successive takes cross refills, so accepted values must carry over
    stream = _RandrangeStream(random.Random(seed), p)
    got = [x for count in counts for x in stream.take(count).tolist()]
    rng = random.Random(seed)
    assert got == [rng.randrange(p) for _ in range(sum(counts))]
    assert all(type(x) is int for x in got)


# (p, fiber variables, f, d, t, seed, budget) -> hits of the one-at-a-time
# randrange search: (A_0, ..., A_n), sample_index, count, maybe_duplicate
SEARCH_PINS = [
    ((3, 2, "y0^2 - y1^2", 2, 2, 5, 3001),
     [((((1, 1), (0, 2)), ((1, 1), (1, 2))), 11, 19, False)]),
    ((3, 2, "y0^2 - y1^2", 2, 2, 7, 3001),
     [((((0, 1), (1, 0)), ((0, 1), (2, 0))), 258, 16, False)]),
    ((3, 3, "y0^2 + y1^2 - y2^2", 2, 2, 1, 30001),
     [((((2, 1), (0, 1)), ((1, 0), (2, 2)), ((2, 1), (1, 1))), 9761, 2, False),
      ((((2, 2), (0, 1)), ((2, 0), (2, 1)), ((2, 2), (2, 1))), 28140, 1, False)]),
    ((2, 2, "y0^3 + y1^3", 3, 3, 4, 3000),
     [((((1, 0, 1), (0, 1, 1), (0, 1, 0)), ((1, 0, 0), (1, 1, 1), (0, 1, 0))),
       918, 1, False),
      ((((0, 0, 1), (0, 1, 0), (1, 0, 1)), ((0, 1, 1), (0, 0, 1), (1, 1, 0))),
       1933, 2, False)]),
    ((5, 2, "y0^2 - 2*y1^2", 2, 4, 1, 600), []),
]


def _search_pins(case):
    p, nfib, form, d, t, seed, budget = case
    ring = cr.PolyRing(cr.prime_field(p), 0, nfib)
    hits = cr.random_search(ring, cr.parse_poly(form, ring), d, t,
                            seed=seed, budget=budget)
    return [(tuple(h.rep.pencil.coefficients[key] for key in fiber_keys(ring)),
             h.sample_index, h.count, h.maybe_duplicate) for h in hits]


@pytest.mark.parametrize("case,expected", SEARCH_PINS)
def test_random_search_pinned(case, expected):
    assert _search_pins(case) == expected


def test_random_search_independent_of_block_size(monkeypatch):
    # tiny blocks put many block boundaries inside the pinned runs
    monkeypatch.setattr(constructors, "_BLOCK_ENTRIES", 36)
    for case, expected in SEARCH_PINS[:2] + SEARCH_PINS[3:4]:
        assert _search_pins(case) == expected


@pytest.mark.parametrize("p", [2**31 - 1, 2**61 - 1])
def test_random_search_large_prime(p):
    ring = cr.PolyRing(cr.prime_field(p), 0, 2)
    f = cr.parse_poly("y0^2 - y1^2", ring)
    assert cr.random_search(ring, f, 2, 2, seed=3, budget=1500) == []


@pytest.mark.parametrize("p", [7, 2**31 - 1, 2**61 - 1])
def test_modp_mat_pow_matches_mat_mul(p):
    field = cr.prime_field(p)
    rng = random.Random(p)
    mats = [[[rng.randrange(p) for _ in range(3)] for _ in range(3)]
            for _ in range(4)]
    mats.append([[p - 1] * 3] * 3)  # the sum of unreduced products overflows int64
    for d in (1, 2, 3, 5):
        expected = []
        for m in mats:
            power = m
            for _ in range(d - 1):
                power = linalg.mat_mul(field, power, m)
            expected.append(power)
        got = linalg.modp_mat_pow(np.array(mats, dtype=object), d, p)
        assert got.tolist() == expected
        assert got.dtype == (np.int64 if p < 2**31 else object)
