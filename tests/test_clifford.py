import ast
import json
import pathlib
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cliffrep as cr
from cliffrep import clifford, constructors, linalg, pencil, ulrich
from cliffrep.documents import dumps_document
from cliffrep.errors import (BadPrime, CoefficientNotInField, DivisionFails,
                             ExponentOverflow, InputError,
                             InternalInconsistency, NotHomogeneous,
                             ShapeMismatch, UnsupportedBase)
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


def test_verify_leaves_the_pencil_alone(qq):
    # for d = 1 the power of M is the pencil's own coefficient dict
    rep = hyperplane_22(qq)
    before = dict(rep.pencil.coefficients)
    wrong = cr.CliffordRep(rep.pencil, cr.parse_poly("y0", rep.ring), 1)
    assert not cr.verify_relation(wrong).passed
    assert rep.pencil.coefficients == before
    assert cr.verify_relation(rep).passed


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


def bareiss_unit(rep):
    """det M(y) / f^r by the symbolic determinant and exact division."""
    quotient = cr.poly_matrix_det(cr.assemble(rep.pencil))
    for _ in range(rep.clifford_index):
        quotient = quotient.exact_div(rep.f)
    assert quotient.is_constant()
    return quotient.constant()


@st.composite
def sparse_invertible(draw, field, size):
    """A monomial matrix times up to two transvections: random, invertible,
    and sparse enough that Bareiss stays cheap on a conjugated t = 8 pencil."""
    perm = draw(st.permutations(range(size)))
    scalars = (st.integers(1, field.p - 1) if field.kind == "GF"
               else st.integers(-5, 5).filter(bool))
    theta = [[field.of(draw(scalars)) if perm[i] == j else field.zero
              for j in range(size)] for i in range(size)]
    if size > 1:
        for _ in range(draw(st.integers(0, 2))):
            i, j = draw(st.permutations(range(size)))[:2]
            c = field.of(draw(scalars))
            theta[i] = [field.add(x, field.mul(c, y))
                        for x, y in zip(theta[i], theta[j])]
    return theta


def property_rep(kind, a, b):
    gf101 = cr.prime_field(101)
    qq = cr.rationals()
    if kind == "clock_gf7":
        return clock_rep(cr.prime_field(7), [1, 2, 4])
    if kind == "gamma4_gf101":
        return cr.gamma_quadric_rep(cr.PolyRing(gf101, 0, 4), [3, 5, 7, 11])
    if kind == "gamma8_gf101":
        return cr.gamma_quadric_rep(cr.PolyRing(gf101, 0, 6),
                                    [3, 5, 7, 11, 13, 17])
    if kind == "gamma_qq":
        return cr.gamma_quadric_rep(cr.PolyRing(qq, 0, 4), [a, -a, b, -b])
    # two copies of a base-parametrized hyperplane, so theta can mix them
    ring = cr.PolyRing(qq, 1, 3)
    hyper = cr.hyperplane_rep(cr.parse_poly(f"{a}*t1*y0 - {b}*y1 + y2", ring))
    return cr.twist_by_free(hyper, 2)


PROPERTY_KINDS = st.sampled_from(["clock_gf7", "gamma4_gf101", "gamma8_gf101",
                                   "gamma_qq", "hyperplane_base"])


def base_free(rep, t1):
    """The rep itself, or its fiber at t1 when it has a base variable."""
    return cr.specialize_rep(rep, {"t1": t1}) if rep.ring.base_count else rep


@settings(derandomize=True, max_examples=50, deadline=None)
@given(data=st.data(), kind=PROPERTY_KINDS,
       a=st.integers(1, 6), b=st.integers(1, 6))
def test_det_unit_from_relation_matches_bareiss(data, kind, a, b):
    rep = property_rep(kind, a, b)
    theta = data.draw(sparse_invertible(rep.ring.field, rep.size))
    conj = cr.conjugate(rep, theta)
    result = cr.det_factorization(conj)
    assert result.exponent == conj.clifford_index
    assert result.unit == bareiss_unit(conj)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data(), kind=PROPERTY_KINDS, a=st.integers(1, 6),
       b=st.integers(1, 6), t1=st.integers(-9, 9))
def test_conjugation_preserves_relation_and_hilbert(data, kind, a, b, t1):
    rep = property_rep(kind, a, b)
    theta = data.draw(sparse_invertible(rep.ring.field, rep.size))
    conj = cr.conjugate(rep, theta)
    cert = cr.verify_relation(conj)
    assert cert.passed and cert.clifford_index == rep.clifford_index
    fiber, conj_fiber = base_free(rep, t1), base_free(conj, t1)
    assert (cr.hilbert_function(cr.assemble(conj_fiber.pencil), 4).hilbert
            == cr.hilbert_function(cr.assemble(fiber.pencil), 4).hilbert)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data(), kind=PROPERTY_KINDS, a=st.integers(1, 6),
       b=st.integers(1, 6), t1=st.integers(-9, 9))
def test_hom_dimension_is_additive_over_direct_sums(data, kind, a, b, t1):
    rep = property_rep(kind, a, b)
    theta = data.draw(sparse_invertible(rep.ring.field, rep.size))
    one = base_free(rep, t1)
    other = base_free(cr.conjugate(rep, theta), t1)
    summed = cr.direct_sum(one, other)
    for target in (one, cr.twist_by_free(one, 2)):
        assert (cr.hom_space_dim(summed, target)
                == cr.hom_space_dim(one, target) + cr.hom_space_dim(other, target))
        assert (cr.hom_space_dim(target, summed)
                == cr.hom_space_dim(target, one) + cr.hom_space_dim(target, other))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data(), kind=PROPERTY_KINDS,
       a=st.integers(1, 6), b=st.integers(1, 6))
def test_document_round_trip(data, kind, a, b):
    rep = property_rep(kind, a, b)
    theta = data.draw(sparse_invertible(rep.ring.field, rep.size))
    for original in (rep, cr.conjugate(rep, theta)):
        text = dumps_document(cr.pencil_document(original))
        loaded = cr.load_pencil_document(json.loads(text))
        assert loaded == original
        assert dumps_document(cr.pencil_document(loaded)) == text


@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data(), a=st.integers(1, 6), b=st.integers(1, 6),
       t1=st.integers(-20, 20), prime=st.sampled_from([7, 11, 101]))
def test_reduction_commutes_with_specialization(data, a, b, t1, prime):
    # theta has determinant +-(a product of scalars in -5..5), so no prime
    # >= 7 divides a denominator of the conjugate
    rep = property_rep("hyperplane_base", a, b)
    theta = data.draw(sparse_invertible(rep.ring.field, rep.size))
    conj = cr.conjugate(rep, theta)
    fiber = cr.specialize_rep(conj, {"t1": t1})
    assert cr.verify_relation(fiber).passed
    reduced = cr.reduce_rep_mod_prime(conj, prime)
    assert (cr.reduce_rep_mod_prime(fiber, prime)
            == cr.specialize_rep(reduced, {"t1": t1}))


@pytest.mark.parametrize("p, factors", [
    (2, ["y0", "y1", "y0 + y1"]),
    (3, ["y0", "y1", "y0 + y1", "y0 - y1"]),
])
def test_det_factorization_falls_back_when_f_vanishes_everywhere(p, factors,
                                                                 det_calls):
    # f = y0*y1*(y0 + y1)*... vanishes at every point of GF(p)^2, so no
    # probe point has f(q) != 0 and the symbolic determinant decides
    ring = cr.PolyRing(cr.prime_field(p), 0, 2)
    d = len(factors)
    matrix = [[ring.zero()] * d for _ in range(d)]
    for i, text in enumerate(factors):
        matrix[i][(i + 1) % d] = cr.parse_poly(text, ring)
    f = ring.one()
    for text in factors:
        f = f * cr.parse_poly(text, ring)
    rep = cr.CliffordRep(cr.extract(matrix), f, d)
    assert cr.verify_relation(rep).passed
    result = cr.det_factorization(rep)
    assert det_calls == [d]
    # a d-cycle has sign (-1)^(d-1)
    assert result.unit == bareiss_unit(rep) == (-1) ** (d - 1) % p
    assert result.exponent == 1


# -- equivalence -------------------------------------------------------------------


def count_hom_kernels(monkeypatch):
    """Patch the list and the spun Hom systems to record each entry."""
    entered = []
    for name in ("intertwiner_system", "_spun_system"):
        def counted(*args, _original=getattr(clifford, name), _name=name, **kwargs):
            entered.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(clifford, name, counted)
    return entered


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


def test_equivalence_size_mismatch_reports_both_hom_dims(block_rep_qq):
    # list (QQ) and array (GF(101), t = 4 against t = 8) Hom kernels
    gamma = cr.gamma_quadric_rep(cr.PolyRing(cr.prime_field(101), 0, 4), [3, 5, 7, 11])
    for rep in (block_rep_qq, gamma):
        double = cr.direct_sum(rep, rep)
        for a, b in ((rep, double), (double, rep)):
            result = cr.equivalence_test(a, b)
            assert (result.verdict, result.reason) == ("inequivalent", "size mismatch")
            assert result.dims == (cr.hom_space_dim(a, b),
                                   cr.hom_space_dim(b, a)) == (2, 2)


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


def test_equivalence_reports_trials_before_a_zero_space():
    # over GF(7) with f = y0^2, M1 = (I, 0) is S+ + S+ and M2 = (diag(1, -1),
    # [[0, 1], [0, 0]]) the non-split extension: Hom(M1, M2) holds 48 nonzero
    # singular elements, all checked, and Hom(M2, M1) is zero
    gf7 = cr.prime_field(7)
    ring = cr.PolyRing(gf7, 0, 2)
    f = cr.parse_poly("y0^2", ring)

    def rep(a0, a1):
        mats = [[[gf7.of(x) for x in row] for row in m] for m in (a0, a1)]
        out = cr.CliffordRep(cr.LinearPencil.from_coefficients(
            ring, 2, dict(zip(pencil.fiber_keys(ring), mats))), f, 2)
        assert cr.verify_relation(out).passed
        return out

    m1 = rep([[1, 0], [0, 1]], [[0, 0], [0, 0]])
    m2 = rep([[1, 0], [0, -1]], [[0, 1], [0, 0]])
    result = cr.equivalence_test(m1, m2, seed=0)
    assert (result.verdict, result.dims) == ("inequivalent", (2, 0))
    assert (result.trials, result.seed) == (48, 0)


def test_equivalence_inconclusive_case(qq):
    # y0*I vs y0*diag(1,-1): nonzero intertwiner space, every element singular
    ring = cr.PolyRing(qq, 0, 1)
    f = cr.parse_poly("y0^2", ring)
    y0 = ring.var("y0")
    a = cr.CliffordRep(cr.extract([[y0, ring.zero()], [ring.zero(), y0]]), f, 2)
    b = cr.CliffordRep(cr.extract([[y0, ring.zero()], [ring.zero(), -y0]]), f, 2)
    result = cr.equivalence_test(a, b, seed=1)
    assert result.verdict == "inconclusive"


def test_equivalence_search_stays_within_budget():
    # Hom(A+A, A+B) has dimension 2 and 13^2 - 1 = 168 nonzero elements,
    # more than the budget, so they are drawn at random and prove nothing
    a, b = (clock_rep(cr.prime_field(13), roots) for roots in ([1, 2, 3], [2, 1, 3]))
    for seed in range(3):
        result = cr.equivalence_test(cr.direct_sum(a, a), cr.direct_sum(a, b),
                                     seed=seed, trials=64)
        assert (result.verdict, result.dims) == ("inconclusive", (2, 2))
        assert 1 <= result.trials <= 64


def test_equivalence_by_a_covered_span():
    gf7 = cr.prime_field(7)
    # all 7^2 - 1 = 48 elements of Hom(A+A, A+B) fit the budget and are
    # singular: a proof of inequivalence
    a, b = (clock_rep(gf7, roots) for roots in ([1, 2, 3], [2, 1, 3]))
    result = cr.equivalence_test(cr.direct_sum(a, a), cr.direct_sum(a, b), trials=64)
    assert (result.verdict, result.dims, result.trials) == ("inequivalent", (2, 2), 48)
    assert "(2, 2)" in result.reason and "48" in result.reason
    # a budget below 48 draws at random and proves nothing
    result = cr.equivalence_test(cr.direct_sum(a, a), cr.direct_sum(a, b), trials=47)
    assert (result.verdict, result.trials) == ("inconclusive", 47)
    # Hom(A+B, A+C) is spanned by the singular id_A + 0, over any field
    for field in (gf7, cr.rationals()):
        a, b, c = (clock_rep(field, roots)
                   for roots in ([1, 2, 3, 4], [1, 2, 4, 3], [1, 3, 2, 4]))
        result = cr.equivalence_test(cr.direct_sum(a, b), cr.direct_sum(a, c))
        assert (result.verdict, result.dims, result.trials) == ("inequivalent", (1, 1), 1)
    # over a base ring the span is bounded by max_base_degree: no proof
    ring = cr.PolyRing(gf7, 1, 2)
    a, b = (cr.clock_shift_rep(cr.SplitBinaryForm.from_roots(ring, roots))
            for roots in ([1, 2, 3], [2, 1, 3]))
    result = cr.equivalence_test(cr.direct_sum(a, a), cr.direct_sum(a, b),
                                 max_base_degree=0)
    assert (result.verdict, result.dims, result.trials) == ("inconclusive", (2, 2), 48)


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


def test_an_isomorphism_gives_the_reverse_hom_dimension(monkeypatch, block_rep_qq):
    # an invertible theta: M1 -> M2 gives Hom(M2, M1) ≅ End(M1) ≅ Hom(M1, M2),
    # so an equivalent pair solves one Hom space, on lists and on arrays alike
    gf7, gf101 = cr.prime_field(7), cr.prime_field(101)
    gamma2 = cr.gamma_quadric_rep(cr.PolyRing(gf7, 0, 2), [1, 3])
    gamma4 = cr.gamma_quadric_rep(cr.PolyRing(gf101, 0, 4), [3, 5, 7, 11])
    rng = random.Random(4)
    pairs = [(rep, cr.conjugate(rep, random_invertible(rep.ring.field, rep.size, rng)),
              kernel)
             for rep, kernel in ((block_rep_qq, "intertwiner_system"),
                                 (gamma2, "intertwiner_system"),
                                 (gamma4, "_spun_system"))]
    double = cr.direct_sum(gamma4, pairs[-1][1])
    pairs.append((double, cr.twist_by_free(gamma4, 2), "_spun_system"))
    entered = count_hom_kernels(monkeypatch)
    for a, b, kernel in pairs:
        entered.clear()
        result = cr.equivalence_test(a, b)
        assert result.verdict == "equivalent"
        assert entered == [kernel]
        want = 4 if a is double else 1
        assert result.dims == (want, want)
    # any other verdict solves both directions
    a, b = (clock_rep(gf7, roots) for roots in ([1, 2, 3], [2, 1, 3]))
    entered.clear()
    result = cr.equivalence_test(cr.direct_sum(a, a), cr.direct_sum(a, b))
    assert result.verdict == "inequivalent" and len(entered) == 2


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data(), p=st.sampled_from([7, 101, 2**31 - 1, 0]),
       kind=st.sampled_from(["conjugate", "sum_twist", "clock"]))
def test_reported_dims_match_the_list_system(data, p, kind):
    """dims[1], read off the isomorphism for equivalent reps, is the
    dimension of Hom(rep2, rep1) from the list Kronecker system."""
    field = cr.prime_field(p) if p else cr.rationals()
    if kind == "clock":
        roots = data.draw(st.lists(st.integers(0, 6), min_size=2, max_size=4))
        a = clock_rep(field, roots)
        b = clock_rep(field, data.draw(st.permutations(roots)))
    else:
        # pairs of opposite coefficients: the gamma construction splits over QQ
        coeffs = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=2))
        rep = cr.gamma_quadric_rep(cr.PolyRing(field, 0, 2 * len(coeffs)),
                                   [s * c for c in coeffs for s in (1, -1)])
        conj = cr.conjugate(rep, data.draw(sparse_invertible(field, rep.size)))
        a, b = ((rep, conj) if kind == "conjugate" else
                (cr.direct_sum(rep, conj), cr.twist_by_free(conj, 2)))
    result = cr.equivalence_test(a, b, seed=data.draw(st.integers(0, 3)))
    if kind != "clock":
        assert result.verdict == "equivalent"
    rows, unknowns = clifford.intertwiner_system(b, a)
    assert result.dims[1] == len(unknowns) - linalg.rank(field, rows)


def test_conjugation_invariance_random(gf7):
    rep = block_quadric_rep(gf7)
    rng = random.Random(2718)
    for _ in range(5):
        theta = random_invertible(gf7, 4, rng)
        other = cr.conjugate(rep, theta)
        assert other.verified
        assert cr.equivalence_test(rep, other).verdict == "equivalent"


# -- sums, twists, hom spaces ---------------------------------------------------------


def test_constructor_fault_is_internal_inconsistency(qq, monkeypatch):
    # generators that square to the coefficients but commute: the
    # constructor's own relation check must report a program fault, also
    # under -O
    swap = [[qq.zero, qq.one], [qq.one, qq.zero]]
    monkeypatch.setattr(constructors, "gamma_generators",
                        lambda field, coeffs: [swap, swap])
    with pytest.raises(InternalInconsistency, match="gamma_quadric_rep"):
        cr.gamma_quadric_rep(cr.PolyRing(qq, 0, 2), [1, 1])


def test_maps_of_verified_reps_do_not_reverify(qq, monkeypatch):
    gf101 = cr.prime_field(101)
    gamma = cr.gamma_quadric_rep(cr.PolyRing(gf101, 0, 4), [3, 5, 7, 11])
    block = block_quadric_rep(qq)
    base = cr.hyperplane_rep(cr.parse_poly("t1*y0 - y1 + y2", cr.PolyRing(qq, 1, 3)))
    theta = random_invertible(gf101, 4, random.Random(5))

    def refuse(*args, **kwargs):
        raise AssertionError("the relation was checked again")

    for module in (clifford, constructors, ulrich):
        monkeypatch.setattr(module, "verify_relation", refuse)
    for module in (pencil, clifford):
        monkeypatch.setattr(module, "power_coefficients", refuse)
    for out, index in ((cr.conjugate(gamma, theta), 2),
                       (cr.direct_sum(gamma, gamma), 4),
                       (cr.twist_by_free(gamma, 3), 6),
                       (cr.reduce_rep_mod_prime(block, 7), 2),
                       (cr.specialize_rep(base, {"t1": qq.of(3)}), 1)):
        assert out.verified and out.clifford_index == index


AGREEMENT_REPS = {
    "clock_gf7": lambda: clock_rep(cr.prime_field(7), [1, 2, 4]),
    "clock_qq": lambda: clock_rep(cr.rationals(), [1, -2, 3]),
    "gamma_gf7": lambda: cr.gamma_quadric_rep(cr.PolyRing(cr.prime_field(7), 0, 3),
                                              [1, 3, 5]),
    "gamma_gf101": lambda: cr.gamma_quadric_rep(
        cr.PolyRing(cr.prime_field(101), 0, 4), [3, 5, 7, 11]),
    "gamma_qq": lambda: cr.gamma_quadric_rep(cr.PolyRing(cr.rationals(), 0, 4),
                                             [2, -2, 3, -3]),
    "block_gf7": lambda: block_quadric_rep(cr.prime_field(7)),
    "block_gf101": lambda: block_quadric_rep(cr.prime_field(101)),
    "block_qq": lambda: block_quadric_rep(cr.rationals()),
    "hyperplane_base_qq": lambda: cr.hyperplane_rep(
        cr.parse_poly("2*t1*y0 - 3*y1 + y2", cr.PolyRing(cr.rationals(), 1, 3))),
}


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(AGREEMENT_REPS)),
       mult=st.integers(1, 3), t1=st.integers(1, 9),
       prime=st.sampled_from([7, 11, 101]))
def test_inherited_proofs_agree_with_verify_relation(data, kind, mult, t1, prime):
    # theta has determinant +-(a product of scalars in -5..5), so no prime
    # >= 7 divides a denominator of a QQ conjugate
    rep = AGREEMENT_REPS[kind]()
    conj = cr.conjugate(rep, data.draw(sparse_invertible(rep.ring.field, rep.size)))
    outputs = [conj, cr.direct_sum(rep, conj), cr.twist_by_free(conj, mult)]
    if rep.ring.base_count:
        outputs += [cr.specialize_rep(out, {"t1": t1}) for out in outputs]
    if rep.ring.field.kind == "QQ":
        outputs += [cr.reduce_rep_mod_prime(out, prime) for out in outputs]
    for out in outputs:
        assert out.verified
        fresh = cr.CliffordRep(out.pencil, out.f, out.d)
        assert cr.verify_relation(fresh).passed
        assert fresh.clifford_index == out.clifford_index == out.size // out.d


def test_conjugate_rejects_a_wrong_size_theta(qq):
    rep = cr.twist_by_free(hyperplane_22(qq), 2)
    eye3 = [[qq.one if i == j else qq.zero for j in range(3)] for i in range(3)]
    with pytest.raises(ShapeMismatch):
        cr.conjugate(rep, eye3)
    singular = [[qq.one, qq.zero], [qq.one, qq.zero]]
    with pytest.raises(InputError, match="singular"):
        cr.conjugate(rep, singular)


def test_conjugate_takes_theta_into_the_field(block_rep_qq):
    # an int theta over QQ gives the Fraction rep; a float has no exact value
    ints = [[3, 1, 0, 0], [0, 7, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    from_ints = cr.conjugate(block_rep_qq, ints)
    from_fractions = cr.conjugate(block_rep_qq,
                                  [[Fraction(x) for x in row] for row in ints])
    assert from_ints.pencil == from_fractions.pencil and from_ints.verified
    assert all(isinstance(x, Fraction)
               for c in from_ints.pencil.coefficients.values()
               for row in c for x in row)
    with pytest.raises(CoefficientNotInField):
        cr.conjugate(block_rep_qq, [[float(x) for x in row] for row in ints])


def test_package_has_no_assert_statements():
    # invariants must hold under python -O, which strips assert
    root = pathlib.Path(cr.__file__).parent
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Assert)]
        assert not found, f"{path.name}: assert at lines {found}"


def test_package_imports_are_used():
    # __init__.py imports to re-export; every other module uses its imports
    root = pathlib.Path(cr.__file__).parent
    for path in sorted(root.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {alias.asname or alias.name.split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = sorted(imported - used)
        assert not unused, f"{path.name}: unused imports {unused}"


def test_package_modules_import_no_private_names():
    # a _name is private to its module: other package modules use the
    # public names
    root = pathlib.Path(cr.__file__).parent
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        private = sorted(alias.name for node in ast.walk(tree)
                         if isinstance(node, ast.ImportFrom)
                         and (node.level or (node.module or "").startswith("cliffrep"))
                         for alias in node.names if alias.name.startswith("_"))
        assert not private, f"{path.name}: imports private names {private}"


def _numpy_imports(node, function=None):
    """(bound name, innermost enclosing function or None, line) of every
    import of numpy under node; a class body is no function scope."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            module = getattr(child, "module", None)
            for alias in child.names:
                if (module or alias.name).split(".")[0] == "numpy":
                    yield alias.asname or alias.name.split(".")[0], function, child.lineno
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _numpy_imports(child, child)
        else:
            yield from _numpy_imports(
                child, None if isinstance(child, ast.ClassDef) else function)


def test_package_imports_numpy_only_inside_functions():
    # the certify paths never load numpy: each array kernel imports it in
    # its own body and uses it there, and no signature names it, since no
    # module binds it
    root = pathlib.Path(cr.__file__).parent
    seen = 0
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, function, line in _numpy_imports(tree):
            seen += 1
            assert function is not None, f"{path.name}:{line}: numpy imported outside a function"
            used = {node.id for node in ast.walk(function) if isinstance(node, ast.Name)}
            assert name in used, f"{path.name}:{line}: {function.name} never uses {name}"
        annotations = [node.annotation for node in ast.walk(tree)
                       if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation]
        annotations += [node.returns for node in ast.walk(tree)
                        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and node.returns]
        named = sorted({ast.unparse(a) for a in annotations
                        if re.search(r"\b(np|numpy)\b", ast.unparse(a))})
        assert not named, f"{path.name}: annotations name numpy: {named}"
    assert seen  # the array kernels do import it


def test_only_generators_picks_lists_or_arrays():
    # one function decides whether a rep's A_i are a list or an int64 array
    root = pathlib.Path(cr.__file__).parent
    sites = set()
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(
                    func, "id", None)
                builds = name == "array" and any(
                    isinstance(sub, ast.Attribute) and sub.attr == "scalar_matrices"
                    for sub in ast.walk(node))
                if name == "_uses_arrays" or builds:
                    sites.add((path.name, getattr(top, "name", None)))
    assert sites == {("clifford.py", "_generators")}


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


@pytest.mark.parametrize("mult", [2.0, "2", None, 0, -1])
def test_twist_rejects_a_bad_multiplicity(block_rep_qq, mult):
    with pytest.raises(InputError):
        cr.twist_by_free(block_rep_qq, mult)


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
        images = [list(col) for col in zip(*linalg.mat_mul(field, m, list(zip(*basis))))]
        assert linalg.rank(field, basis + images) == len(basis)


@settings(derandomize=True, max_examples=12, deadline=None)
@given(data=st.data(), p=st.sampled_from([7, 101, 2**31 - 1]),
       nvars=st.integers(3, 6))
def test_array_kernels_match_list_builders(data, p, nvars):
    """Above the size cut, Hom systems, algebra spans and spins run on
    arrays; the list builders must give the same dimensions and bases."""
    field = cr.prime_field(p)
    coeffs = data.draw(st.lists(st.integers(1, 6).map(lambda a: a * (-1) ** a),
                                min_size=nvars, max_size=nvars))
    rep = cr.gamma_quadric_rep(cr.PolyRing(field, 0, nvars), coeffs)
    conj = cr.conjugate(rep, data.draw(sparse_invertible(field, rep.size)))
    summed = cr.direct_sum(rep, conj)
    assert clifford._uses_arrays(field, rep.size ** 2)
    for a, b in ((rep, conj), (conj, summed), (summed, rep)):
        rows, unknowns = clifford.intertwiner_system(a, b)
        vecs = linalg.nullspace(field, rows)
        assert cr.hom_space_dim(a, b) == len(unknowns) - linalg.rank(field, rows)
        assert cr.intertwiner_basis(a, b) == [
            clifford._vector_to_theta(a.ring, unknowns, v) for v in vecs]
    for r in (rep, conj, summed):
        mats = r.scalar_matrices()
        arrays = np.array(mats, dtype=np.int64)
        assert (clifford._generated_algebra_dim(field, arrays)
                == clifford._generated_algebra_dim(field, mats))
        vec = data.draw(st.lists(st.integers(0, p - 1), min_size=r.size,
                                 max_size=r.size))
        assert clifford._spin(field, arrays, vec) == clifford._spin(field, mats, vec)


def list_hom_basis(rep1, rep2):
    """Hom(rep1, rep2) from the list ``intertwiner_system``: its canonical
    nullspace as Poly matrices."""
    field = rep1.ring.field
    rows, unknowns = clifford.intertwiner_system(rep1, rep2)
    vecs = linalg.nullspace(field, rows or [[field.zero] * len(unknowns)])
    return [clifford._vector_to_theta(rep1.ring, unknowns, v) for v in vecs]


def hom_family(data, field):
    """Reps of one form: a clock and the clock with its roots permuted
    (repeated roots allowed, so some are non-reduced), a gamma rep with its
    conjugate, sum and twists up to 5, or sums of up to 9 copies of a
    hyperplane rep.  Twists and sums need one seed per summand."""
    kind = data.draw(st.sampled_from(["clock", "gamma", "hyperplane"]))
    if kind == "clock":
        roots = data.draw(st.lists(st.integers(0, 6), min_size=3, max_size=4))
        rep = clock_rep(field, roots)
        permuted = clock_rep(field, data.draw(st.permutations(roots)))
        return [rep, permuted, cr.direct_sum(rep, permuted),
                cr.twist_by_free(permuted, 2)]
    if kind == "gamma":
        coeffs = data.draw(st.lists(st.integers(1, 6), min_size=3, max_size=4))
        rep = cr.gamma_quadric_rep(cr.PolyRing(field, 0, len(coeffs)), coeffs)
        conj = cr.conjugate(rep, data.draw(sparse_invertible(field, rep.size)))
        return [rep, conj, cr.direct_sum(rep, conj),
                cr.twist_by_free(conj, data.draw(st.integers(2, 5)))]
    coeffs = data.draw(st.lists(st.integers(0, 6), min_size=3, max_size=3)
                       .filter(any))
    ring = cr.PolyRing(field, 0, 3)
    form = cr.parse_poly(" + ".join(f"{c}*y{i}" for i, c in enumerate(coeffs)), ring)
    return [cr.twist_by_free(cr.hyperplane_rep(form), data.draw(st.integers(3, 9)))
            for _ in range(2)]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data(), p=st.sampled_from([7, 101, 2**31 - 1]))
def test_spun_hom_matches_the_list_system(data, p):
    """Above the size cut Hom is solved for the images of M1's seeds; the
    dimension and canonical basis must be those of the Kronecker-form list
    system, zero spaces and many seeds included."""
    field = cr.prime_field(p)
    family = hom_family(data, field)
    for a in family:
        for b in family:
            if a.size * b.size > 160:
                continue
            assert clifford._uses_arrays(field, a.size * b.size)
            expected = list_hom_basis(a, b)
            assert cr.hom_space_dim(a, b) == len(expected)
            assert cr.intertwiner_basis(a, b) == expected


@pytest.mark.parametrize("p", [7, 101, 2**31 - 1])
def test_spun_hom_of_permuted_and_repeated_clock_roots(p):
    field = cr.prime_field(p)
    swapped = clock_rep(field, [2, 1, 3, 4])
    assert cr.hom_space_dim(clock_rep(field, [1, 2, 3, 4]), swapped) == 0
    assert cr.intertwiner_basis(swapped, clock_rep(field, [1, 2, 4, 3])) == []
    # a non-reduced clock: the rotated roots give a one-dimensional Hom
    nonreduced, rotated = clock_rep(field, [1, 1, 2]), clock_rep(field, [1, 2, 1])
    expected = list_hom_basis(nonreduced, rotated)
    assert len(expected) == cr.hom_space_dim(nonreduced, rotated) == 1
    assert cr.intertwiner_basis(nonreduced, rotated) == expected


def test_mixed_size_hom_runs_on_the_list_system():
    # a rep with t <= 2 has list generators, so Hom against a larger rep is
    # the Kronecker system's canonical basis
    for p in (7, 101, 2**31 - 1):
        field = cr.prime_field(p)
        gamma = cr.gamma_quadric_rep(cr.PolyRing(field, 0, 2), [1, 3])
        form = cr.parse_poly("y0 + 2*y1 + 3*y2", cr.PolyRing(field, 0, 3))
        line = cr.hyperplane_rep(form)
        for small, mult in ((gamma, 4), (gamma, 5), (line, 9)):
            big = cr.twist_by_free(small, mult)
            assert clifford._uses_arrays(field, small.size * big.size)
            for a, b in ((small, big), (big, small)):
                expected = list_hom_basis(a, b)
                assert len(expected) == mult
                assert cr.hom_space_dim(a, b) == len(expected)
                assert cr.intertwiner_basis(a, b) == expected


def test_qq_algebra_falls_back_when_the_proof_prime_fails(qq):
    # mod 2^31 - 1 one pair of generators squares to 0, or a denominator
    # cannot be inverted: no proof, so the exact span decides
    prime = clifford._QQ_PROOF_PRIME
    for big in (prime, Fraction(1, prime)):
        rep = cr.gamma_quadric_rep(cr.PolyRing(qq, 0, 4), [1, -1, big, -big])
        if big == prime:
            reduced = cr.reduce_rep_mod_prime(rep, prime)
            gens = np.array(reduced.scalar_matrices(), dtype=np.int64)
            assert clifford._generated_algebra_dim(reduced.ring.field, gens) < 16
        else:
            with pytest.raises(BadPrime):
                cr.reduce_rep_mod_prime(rep, prime)
        assert not clifford._full_algebra_mod_p(rep)
        result = cr.irreducibility_check(rep)
        assert result.verdict == "irreducible" and result.algebra_dim == 16


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


def test_small_qq_reps_keep_their_verdicts(qq):
    # t <= 2 over QQ also tries the proof prime first; verdicts, algebra
    # dimensions and subspaces stay those of the exact span
    ring = cr.PolyRing(qq, 0, 2)
    line = cr.twist_by_free(cr.hyperplane_rep(cr.parse_poly("y0 + 2*y1", ring)), 2)
    gamma = cr.gamma_quadric_rep(ring, [1, 2])
    matrix = [[ring.zero(), cr.parse_poly("-y0 - y1", ring)],
              [cr.parse_poly("y0 + y1", ring), ring.zero()]]
    rotation = cr.CliffordRep(cr.extract(matrix),
                              cr.parse_poly("-y0^2 - 2*y0*y1 - y1^2", ring), 2)
    assert cr.verify_relation(rotation).passed
    expected = ((line, "reducible", 1, [[1, 0]]), (gamma, "irreducible", 4, None),
                (rotation, "inconclusive", 2, None))
    for rep, verdict, algebra_dim, subspace in expected:
        for seed in (0, 1):
            result = cr.irreducibility_check(rep, seed=seed)
            assert (result.verdict, result.algebra_dim, result.subspace) == (
                verdict, algebra_dim, subspace)


def test_irreducibility_draws_vectors_only_when_spun(monkeypatch):
    # e_0 already spins a proper subspace of the sum: no random vector is
    # drawn, however large the budget
    field = cr.prime_field(101)
    rep = cr.gamma_quadric_rep(cr.PolyRing(field, 0, 6), [1, -1, 2, -2, 3, -3])
    draws = []

    def counted(*args):
        draws.append(args)
        return original(*args)

    original = clifford._random_scalars
    monkeypatch.setattr(clifford, "_random_scalars", counted)
    result = cr.irreducibility_check(cr.direct_sum(rep, rep), vector_trials=10_000)
    assert result.verdict == "reducible"
    assert draws == []


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


def parametrized_quadric(qq):
    """[[0, y0 - t1*y1], [y0 + t1*y1, 0]], with f = y0^2 - t1^2*y1^2."""
    ring = cr.PolyRing(qq, 1, 2)
    matrix = [[ring.zero(), cr.parse_poly("y0 - t1*y1", ring)],
              [cr.parse_poly("y0 + t1*y1", ring), ring.zero()]]
    f = cr.parse_poly("y0^2 - t1^2*y1^2", ring)
    return cr.CliffordRep(cr.extract(matrix), f, 2)


def test_base_change_parametrized_quadric(qq):
    # 2x2 pencil with f = y0^2 - t1^2*y1^2; relation holds identically
    rep = parametrized_quadric(qq)
    assert cr.verify_relation(rep).passed
    rng = random.Random(17)
    for _ in range(10):
        point = {"t1": rng.randint(-9, 9)}
        # verify-then-specialize and specialize-then-verify agree
        fiber = cr.specialize_rep(rep, point)
        cert = cr.verify_relation(fiber)
        assert cert.passed
        assert fiber.pencil == cr.specialize(rep.pencil, point)


def test_equivalence_with_base_parameters(qq, det_calls):
    # conjugation by a constant matrix over the base ring is detected with
    # the bounded-degree intertwiner search
    rep = parametrized_quadric(qq)
    theta = [[qq.of(1), qq.of(2)], [qq.of(0), qq.of(1)]]
    other = cr.conjugate(rep, theta)
    result = cr.equivalence_test(rep, other, max_base_degree=1)
    assert result.verdict == "equivalent"
    # only a theta with base-variable entries takes a symbolic determinant
    assert det_calls
    det_calls.clear()
    cr.equivalence_test(rep, other, max_base_degree=0)
    assert det_calls == []


def test_negative_base_degree_is_an_input_error(qq):
    for rep in (parametrized_quadric(qq), hyperplane_22(qq)):
        with pytest.raises(InputError):
            cr.equivalence_test(rep, rep, max_base_degree=-1)
        with pytest.raises(InputError):
            cr.intertwiner_basis(rep, rep, max_base_degree=-1)


def test_base_intertwiners_intertwine(qq):
    rep = parametrized_quadric(qq)
    other = cr.conjugate(rep, [[qq.of(1), qq.of(2)], [qq.of(0), qq.of(1)]])
    for rep1, rep2 in ((rep, rep), (rep, other), (other, rep)):
        basis = cr.intertwiner_basis(rep1, rep2, max_base_degree=1)
        assert basis
        for theta in basis:
            for a1, a2 in zip(rep1.pencil.matrices, rep2.pencil.matrices):
                assert cr.mat_eq(cr.mat_mul(theta, [list(r) for r in a1]),
                                 cr.mat_mul([list(r) for r in a2], theta))


def test_bounded_base_degree_is_no_proof_of_inequivalence(qq):
    # theta = [[1, t1^3], [0, 1]] has determinant 1, so the conjugate is
    # equivalent, but theta has base degree 3 > max_base_degree = 2
    rep = parametrized_quadric(qq)
    ring = rep.ring
    cube = cr.parse_poly("t1^3", ring)
    theta = [[ring.one(), cube], [ring.zero(), ring.one()]]
    theta_inv = [[ring.one(), -cube], [ring.zero(), ring.one()]]
    matrix = cr.mat_mul(cr.mat_mul(theta, cr.assemble(rep.pencil)), theta_inv)
    other = cr.CliffordRep(cr.extract(matrix), rep.f, 2)
    assert cr.verify_relation(other).passed
    for seed in range(4):
        result = cr.equivalence_test(rep, other, seed=seed)
        assert result.verdict == "inconclusive"
        assert result.dims == (0, 0)
        assert "max_base_degree=2" in result.reason
    assert cr.equivalence_test(rep, other, max_base_degree=3).verdict == "equivalent"


def test_base_ring_equivalence_by_the_searched_space(qq):
    # theta = [[1, t1^2, 0], [0, 1, t1^2], [0, 0, 1]] has determinant 1 and
    # spans Hom(rep, other) within max_base_degree = 2; its inverse has a
    # t1^4 entry, so the reverse space is zero there.  theta still proves
    # equivalence.
    ring = cr.PolyRing(qq, 1, 2)
    rep = cr.clock_shift_rep(cr.SplitBinaryForm.from_roots(ring, [1, 2, 4]))
    square = cr.parse_poly("t1^2", ring)
    one, zero = ring.one(), ring.zero()
    theta = [[one, square, zero], [zero, one, square], [zero, zero, one]]
    theta_inv = [[one, -square, square * square], [zero, one, -square],
                 [zero, zero, one]]
    matrix = cr.mat_mul(cr.mat_mul(theta, cr.assemble(rep.pencil)), theta_inv)
    other = cr.CliffordRep(cr.extract(matrix), rep.f, 3)
    assert cr.verify_relation(other).passed
    result = cr.equivalence_test(rep, other)
    assert (result.verdict, result.dims, result.trials) == ("equivalent", (1, 0), 1)
    assert cr.mat_eq(result.theta, theta)
    _assert_intertwines(result.theta, rep, other)


def test_fiber_proof_of_inequivalence(qq):
    # [[y0, y1 +- t1*y2], [-y1 +- t1*y2, -y0]] both square to f*I
    ring = cr.PolyRing(qq, 1, 3)
    f = cr.parse_poly("y0^2 - y1^2 + t1^2*y2^2", ring)
    plus, minus = (cr.CliffordRep(cr.extract(
        [[cr.parse_poly(text, ring) for text in row]
         for row in (("y0", f"y1 {s} t1*y2"), (f"-y1 {s} t1*y2", "-y0"))]), f, 2)
        for s in "+-")
    assert cr.verify_relation(plus).passed and cr.verify_relation(minus).passed
    assert cr.hom_space_dim(cr.specialize_rep(plus, {"t1": 3}),
                            cr.specialize_rep(minus, {"t1": 3})) == 0
    for seed in range(3):
        result = cr.equivalence_test(plus, minus, seed=seed)
        assert result.verdict == "inequivalent"
        # the reason names the base point; replay the proof there
        point = {"t1": int(re.search(r"t1=(-?\d+)", result.reason).group(1))}
        assert point["t1"] != 0
        assert cr.hom_space_dim(cr.specialize_rep(plus, point),
                                cr.specialize_rep(minus, point)) == 0


def test_coefficient_constructors_build_no_poly(qq, monkeypatch):
    rep = property_rep("gamma8_gf101", 0, 0)
    assert rep.verified and rep.size == 8
    theta = random_invertible(rep.ring.field, rep.size, random.Random(3))
    base = parametrized_quadric(qq).pencil
    built = []
    original = cr.Poly.__init__

    def counting(self, ring, terms):
        built.append(terms)
        original(self, ring, terms)

    monkeypatch.setattr(cr.Poly, "__init__", counting)
    conj = cr.conjugate(rep, theta)
    summed = cr.direct_sum(rep, conj)
    twisted = cr.twist_by_free(rep, 2)
    fiber = cr.specialize(base, {"t1": 5})
    monkeypatch.undo()
    assert built == []
    assert conj.verified and summed.verified and twisted.verified
    assert summed.size == twisted.size == 16
    ring = fiber.ring
    assert ring.base_count == 0
    assert fiber == cr.extract(
        [[ring.zero(), cr.parse_poly("y0 - 5*y1", ring)],
         [cr.parse_poly("y0 + 5*y1", ring), ring.zero()]])
