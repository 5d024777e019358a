import ast
import pathlib
import random

import pytest

import cliffrep as cr
from cliffrep import linalg
from cliffrep.errors import (DivisionFails, ExponentOverflow, InputError,
                             InternalInconsistency, NotHomogeneous,
                             UnsupportedBase)
from conftest import (block_quadric_rep, clock_rep, paper_f, paper_phi,
                      quadric_ring, random_invertible)


def hyperplane_22(qq):
    ring = cr.PolyRing(qq, 0, 2)
    return cr.hyperplane_rep(cr.parse_poly("2*y0 + 3*y1", ring))


# -- verify_relation ------------------------------------------------------------


def test_verify_hyperplane(qq):
    rep = hyperplane_22(qq)
    cert = cr.verify_relation(rep)
    assert cert.passed and cert.clifford_index == 1
    assert rep.verified


def test_verify_block_quadric(block_rep_qq):
    cert = cr.verify_relation(block_rep_qq)
    assert cert.passed
    assert (block_rep_qq.size, block_rep_qq.clifford_index) == (4, 2)


def test_verify_bare_phi_fails_with_witness(qq):
    ring = quadric_ring(qq)
    rep = cr.CliffordRep(cr.extract(paper_phi(ring)), paper_f(ring), 2)
    cert = cr.verify_relation(rep)
    assert not cert.passed
    (i, j), diff = cert.witness
    assert (i, j) == (0, 0)
    assert diff == cr.parse_poly("y0^2 + y1*y2", ring) - paper_f(ring)
    assert not rep.verified


def test_verify_rejects_inhomogeneous_f(qq):
    ring = cr.PolyRing(qq, 0, 2)
    pencil = cr.extract([[ring.var("y0")]])
    rep = cr.CliffordRep(pencil, cr.parse_poly("y0 + y1^2", ring), 2)
    with pytest.raises(NotHomogeneous):
        cr.verify_relation(rep)


def test_verify_exponent_overflow(qq):
    ring = cr.PolyRing(qq, 1, 1)
    pencil = cr.extract([[cr.parse_poly("t1^40000*y0", ring)]])
    rep = cr.CliffordRep(pencil, cr.parse_poly("y0^2", ring), 2)
    with pytest.raises(ExponentOverflow):
        cr.verify_relation(rep)


def test_internal_inconsistency_for_degenerate_form(qq):
    # M = [y0] satisfies M^2 = y0^2 * I with t=1, d=2: the relation holds
    # but d does not divide t, which only a degenerate f permits
    ring = cr.PolyRing(qq, 0, 2)
    pencil = cr.extract([[ring.var("y0")]])
    rep = cr.CliffordRep(pencil, cr.parse_poly("y0^2", ring), 2)
    with pytest.raises(InternalInconsistency):
        cr.verify_relation(rep)


# -- det_factorization ------------------------------------------------------------


def test_det_factorization_examples(qq, block_rep_qq, clock3_gf7):
    cr.verify_relation(block_rep_qq)
    result = cr.det_factorization(block_rep_qq)
    assert (result.unit, result.exponent) == (qq.one, 2)

    result = cr.det_factorization(clock3_gf7)
    assert (result.unit, result.exponent) == (1, 1)

    hyper = hyperplane_22(qq)
    result = cr.det_factorization(hyper)
    assert (result.unit, result.exponent) == (qq.one, 1)


def test_det_factorization_requires_verification(qq):
    ring = quadric_ring(qq)
    rep = cr.CliffordRep(cr.extract(paper_phi(ring)), paper_f(ring), 2)
    with pytest.raises(InputError):
        cr.det_factorization(rep)
    # forcing works here because det(phi) = f = c * f^(t/d) with t/d = 1
    result = cr.det_factorization(rep, force=True)
    assert (result.unit, result.exponent) == (qq.one, 1)


def test_det_factorization_division_fails(qq):
    ring = cr.PolyRing(qq, 0, 2)
    matrix = [[cr.parse_poly("y0 + y1", ring), ring.zero()],
              [ring.zero(), cr.parse_poly("y0 + 2*y1", ring)]]
    rep = cr.CliffordRep(cr.extract(matrix), cr.parse_poly("y0^2", ring), 2)
    with pytest.raises(DivisionFails):
        cr.det_factorization(rep, force=True)


# -- equivalence -------------------------------------------------------------------


def test_equivalence_with_conjugate(qq, block_rep_qq):
    theta = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    theta = [[qq.of(x) for x in row] for row in theta]
    other = cr.conjugate(block_rep_qq, theta)
    result = cr.equivalence_test(block_rep_qq, other)
    assert result.verdict == "equivalent"
    # the witness genuinely intertwines
    _assert_intertwines(result.theta, block_rep_qq, other)


def _assert_intertwines(theta, rep1, rep2):
    for m1, m2 in zip(rep1.pencil.matrices, rep2.pencil.matrices):
        lhs = cr.mat_mul(theta, [list(r) for r in m1])
        rhs = cr.mat_mul([list(r) for r in m2], theta)
        assert cr.mat_eq(lhs, rhs)


def test_equivalence_clock_shift_rotated_roots(gf7):
    rep1 = clock_rep(gf7, [1, 2, 4])
    rep2 = clock_rep(gf7, [2, 4, 1])
    assert rep1.f == rep2.f
    result = cr.equivalence_test(rep1, rep2)
    assert result.verdict == "equivalent"
    _assert_intertwines(result.theta, rep1, rep2)
    # the relabeling is realized by a permutation matrix
    for row in result.theta:
        assert sum(0 if e.is_zero() else 1 for e in row) == 1


def test_equivalence_size_mismatch(qq, block_rep_qq):
    ring = block_rep_qq.ring
    small = cr.CliffordRep(cr.extract(paper_phi(ring)), paper_f(ring), 2)
    result = cr.equivalence_test(block_rep_qq, small)
    assert result.verdict == "inequivalent"
    assert "size" in result.reason


def test_equivalence_zero_intertwiner_space(qq):
    # y0*I and -y0*I both square to y0^2*I but admit no nonzero intertwiner
    ring = cr.PolyRing(qq, 0, 2)
    f = cr.parse_poly("y0^2", ring)
    eye = cr.identity_matrix(ring, 2)
    plus = cr.CliffordRep(cr.extract(
        [[eye[i][j] * ring.var("y0") for j in range(2)] for i in range(2)]), f, 2)
    minus = cr.CliffordRep(cr.extract(
        [[-(eye[i][j] * ring.var("y0")) for j in range(2)] for i in range(2)]), f, 2)
    cr.verify_relation(plus)
    cr.verify_relation(minus)
    result = cr.equivalence_test(plus, minus)
    assert result.verdict == "inequivalent"
    assert result.dims == (0, 0)


def test_equivalence_inconclusive_case(qq):
    # y0*I vs y0*diag(1,-1): nonzero intertwiner space, every element singular
    ring = cr.PolyRing(qq, 0, 1)
    f = cr.parse_poly("y0^2", ring)
    y0 = ring.var("y0")
    a = cr.CliffordRep(cr.extract([[y0, ring.zero()], [ring.zero(), y0]]), f, 2)
    b = cr.CliffordRep(cr.extract([[y0, ring.zero()], [ring.zero(), -y0]]), f, 2)
    result = cr.equivalence_test(a, b, seed=1)
    assert result.verdict == "inconclusive"
    assert result.basis is not None


def test_equivalence_mismatch_errors(qq, block_rep_qq, clock3_gf7):
    with pytest.raises(InputError):
        cr.equivalence_test(block_rep_qq, clock3_gf7)


def test_equivalence_is_equivalence_relation(gf7):
    rep = block_quadric_rep(gf7)
    rng = random.Random(42)
    conj = [cr.conjugate(rep, random_invertible(gf7, 4, rng)) for _ in range(2)]
    triple = [rep] + conj
    # reflexive
    for r in triple:
        assert cr.equivalence_test(r, r).verdict == "equivalent"
    # symmetric
    assert cr.equivalence_test(triple[0], triple[1]).verdict == "equivalent"
    assert cr.equivalence_test(triple[1], triple[0]).verdict == "equivalent"
    # transitive
    assert cr.equivalence_test(triple[1], triple[2]).verdict == "equivalent"
    assert cr.equivalence_test(triple[0], triple[2]).verdict == "equivalent"


def test_conjugation_invariance_random(gf7):
    rep = block_quadric_rep(gf7)
    rng = random.Random(2718)
    for _ in range(5):
        theta = random_invertible(gf7, 4, rng)
        other = cr.conjugate(rep, theta)
        assert other.verified
        assert cr.equivalence_test(rep, other).verdict == "equivalent"


# -- sums, twists, hom spaces ---------------------------------------------------------


def test_reverification_failure_is_internal_inconsistency(qq):
    # a rep stamped verified that fails its relation: every builder that
    # re-verifies its output must report a program fault, also under -O
    ring = quadric_ring(qq)
    fake = cr.CliffordRep(cr.extract(paper_phi(ring)), paper_f(ring), 2)
    fake._verified = True
    with pytest.raises(InternalInconsistency):
        cr.conjugate(fake, [[qq.one, qq.zero], [qq.zero, qq.one]])
    with pytest.raises(InternalInconsistency):
        cr.direct_sum(fake, fake)
    with pytest.raises(InternalInconsistency):
        cr.twist_by_free(fake, 2)


def test_package_has_no_assert_statements():
    # invariants must hold under python -O, which strips assert
    root = pathlib.Path(cr.__file__).parent
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Assert)]
        assert not found, f"{path.name}: assert at lines {found}"


def test_direct_sum_hyperplanes(qq):
    rep = hyperplane_22(qq)
    total = cr.direct_sum(rep, rep)
    assert (total.size, total.clifford_index) == (2, 2)


def test_direct_sum_block(block_rep_qq):
    total = cr.direct_sum(block_rep_qq, block_rep_qq)
    assert (total.size, total.clifford_index) == (8, 4)
    assert total.verified


def test_direct_sum_mismatch(qq, block_rep_qq):
    with pytest.raises(InputError):
        cr.direct_sum(block_rep_qq, hyperplane_22(qq))


def test_twist_identity_and_triple(block_rep_qq):
    assert cr.twist_by_free(block_rep_qq, 1) is block_rep_qq
    twisted = cr.twist_by_free(block_rep_qq, 3)
    assert (twisted.size, twisted.clifford_index) == (12, 6)
    assert twisted.verified


def test_hom_space_dims(qq, block_rep_qq):
    assert cr.hom_space_dim(block_rep_qq, block_rep_qq) == 1
    double = cr.direct_sum(block_rep_qq, block_rep_qq)
    assert cr.hom_space_dim(block_rep_qq, double) == 2
    t2 = cr.twist_by_free(block_rep_qq, 2)
    t3 = cr.twist_by_free(block_rep_qq, 3)
    assert cr.hom_space_dim(t2, t3) == 6


def test_hom_requires_base_free(qq):
    ring = cr.PolyRing(qq, 1, 2)
    rep = cr.hyperplane_rep(cr.parse_poly("t1*y0 + y1", ring))
    with pytest.raises(UnsupportedBase):
        cr.hom_space_dim(rep, rep)
    with pytest.raises(UnsupportedBase):
        cr.irreducibility_check(rep)


def test_equivalence_randomized_search_large_prime():
    # GF(101) is beyond the exhaustive window, so the seeded random
    # combination search has to find the invertible intertwiner
    field = cr.prime_field(101)
    rep = block_quadric_rep(field)
    rng = random.Random(5)
    double = cr.direct_sum(rep, rep)
    other = cr.conjugate(double, random_invertible(field, 8, rng))
    result = cr.equivalence_test(double, other, seed=3)
    assert result.verdict == "equivalent"
    assert result.dims[0] == 4  # End(rep 2-fold sum) has dimension 4


# -- irreducibility -----------------------------------------------------------------


def test_block_quadric_irreducible(block_rep_qq):
    cr.verify_relation(block_rep_qq)
    result = cr.irreducibility_check(block_rep_qq)
    assert result.verdict == "irreducible"
    assert result.algebra_dim == 16


def test_clock_shift_irreducible(clock3_gf7):
    result = cr.irreducibility_check(clock3_gf7)
    assert result.verdict == "irreducible"
    assert result.algebra_dim == 9


def test_direct_sum_reducible(block_rep_qq):
    double = cr.direct_sum(block_rep_qq, block_rep_qq)
    result = cr.irreducibility_check(double)
    assert result.verdict == "reducible"
    # the found subspace is the first summand: second-half coordinates vanish
    assert len(result.subspace) == 4
    for vec in result.subspace:
        assert all(x == 0 for x in vec[4:])


def test_reducible_witness_is_rref_and_invariant():
    field = cr.prime_field(101)
    rep = cr.gamma_quadric_rep(cr.PolyRing(field, 0, 3), [1, 2, 3])
    double = cr.direct_sum(rep, rep)
    result = cr.irreducibility_check(double)
    assert result.verdict == "reducible"
    basis = result.subspace
    assert len(basis) == 4
    assert linalg.rref(field, basis)[0] == basis
    for m in double.scalar_matrices():
        images = [linalg.mat_vec(field, m, v) for v in basis]
        assert linalg.rank(field, basis + images) == len(basis)


def test_irreducibility_inconclusive_over_qq(qq):
    # A0 = A1 = the rotation matrix J gives M = (y0+y1)*J with
    # M^2 = -(y0+y1)^2 * I.  The generated algebra is QQ[J], a quadratic
    # field of dimension 2 < 4, and J has no rational eigenvector, so the
    # module is simple over QQ without being absolutely simple.
    ring = cr.PolyRing(qq, 0, 2)
    matrix = [[ring.zero(), cr.parse_poly("-y0 - y1", ring)],
              [cr.parse_poly("y0 + y1", ring), ring.zero()]]
    f = cr.parse_poly("-y0^2 - 2*y0*y1 - y1^2", ring)
    rep = cr.CliffordRep(cr.extract(matrix), f, 2)
    assert cr.verify_relation(rep).passed
    result = cr.irreducibility_check(rep)
    assert result.verdict == "inconclusive"
    assert result.algebra_dim == 2


# -- base change -------------------------------------------------------------------


def test_base_change_hyperplane(qq):
    ring = cr.PolyRing(qq, 1, 2)
    rep = cr.hyperplane_rep(cr.parse_poly("t1*y0 + y1", ring))
    assert rep.verified  # relation holds identically in t1
    rng = random.Random(9)
    for _ in range(10):
        point = {"t1": rng.randint(-20, 20)}
        fiber = cr.specialize_rep(rep, point)
        assert cr.verify_relation(fiber).passed


def test_base_change_parametrized_quadric(qq):
    # 2x2 pencil with f = y0^2 - t1^2*y1^2; relation holds identically
    ring = cr.PolyRing(qq, 1, 2)
    matrix = [[ring.zero(), cr.parse_poly("y0 - t1*y1", ring)],
              [cr.parse_poly("y0 + t1*y1", ring), ring.zero()]]
    f = cr.parse_poly("y0^2 - t1^2*y1^2", ring)
    rep = cr.CliffordRep(cr.extract(matrix), f, 2)
    assert cr.verify_relation(rep).passed
    rng = random.Random(17)
    for _ in range(10):
        point = {"t1": rng.randint(-9, 9)}
        # verify-then-specialize and specialize-then-verify agree
        fiber = cr.specialize_rep(rep, point)
        cert = cr.verify_relation(fiber)
        assert cert.passed
        assert fiber.pencil == cr.specialize(rep.pencil, point)


def test_equivalence_with_base_parameters(qq):
    # conjugation by a constant matrix over the base ring is detected with
    # the bounded-degree intertwiner search
    ring = cr.PolyRing(qq, 1, 2)
    matrix = [[ring.zero(), cr.parse_poly("y0 - t1*y1", ring)],
              [cr.parse_poly("y0 + t1*y1", ring), ring.zero()]]
    f = cr.parse_poly("y0^2 - t1^2*y1^2", ring)
    rep = cr.CliffordRep(cr.extract(matrix), f, 2)
    theta = [[qq.of(1), qq.of(2)], [qq.of(0), qq.of(1)]]
    other = cr.conjugate(rep, theta)
    result = cr.equivalence_test(rep, other, max_base_degree=1)
    assert result.verdict == "equivalent"


def test_base_intertwiners_intertwine(qq):
    ring = cr.PolyRing(qq, 1, 2)
    matrix = [[ring.zero(), cr.parse_poly("y0 - t1*y1", ring)],
              [cr.parse_poly("y0 + t1*y1", ring), ring.zero()]]
    f = cr.parse_poly("y0^2 - t1^2*y1^2", ring)
    rep = cr.CliffordRep(cr.extract(matrix), f, 2)
    other = cr.conjugate(rep, [[qq.of(1), qq.of(2)], [qq.of(0), qq.of(1)]])
    for rep1, rep2 in ((rep, rep), (rep, other), (other, rep)):
        basis = cr.intertwiner_basis(rep1, rep2, max_base_degree=1)
        assert basis
        for theta in basis:
            for a1, a2 in zip(rep1.pencil.matrices, rep2.pencil.matrices):
                assert cr.mat_eq(cr.mat_mul(theta, [list(r) for r in a1]),
                                 cr.mat_mul([list(r) for r in a2], theta))
