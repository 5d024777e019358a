"""Acceptance suite: one test per criterion, one printed line per criterion.

Everything here is exact (no tolerances anywhere); the stated runtime caps
are asserted with wall-clock measurements.
"""
import functools
import random
import time

import cliffrep as cr
from cliffrep import linalg
from conftest import (block_quadric_rep, clock_rep, paper_f, paper_phi,
                      quadric_ring, random_invertible)

QQ = cr.rationals()
GF3 = cr.prime_field(3)
GF5 = cr.prime_field(5)
GF7 = cr.prime_field(7)
GF11 = cr.prime_field(11)
GF101 = cr.prime_field(101)


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number:2d}: {description}")
                raise
            print(f"[PASS] criterion {number:2d}: {description}")
        return wrapper
    return decorate


@criterion(1, "Example reproduction: mf_verify on the quadric pair, < 1 s")
def test_criterion_01_matrix_factorization():
    start = time.perf_counter()
    ring = quadric_ring(QQ)
    phi = paper_phi(ring)
    psi = [[cr.parse_poly(s, ring) for s in row]
           for row in (("y3", "-y1"), ("-y2", "y0"))]
    report = cr.mf_verify(phi, psi, paper_f(ring))
    assert report.passed
    assert time.perf_counter() - start < 1.0


def _relation_suite():
    """All reps of criterion 2, freshly constructed."""
    reps = []
    rng = random.Random(2024)
    ring_q = cr.PolyRing(QQ, 0, 3)
    ring_7 = cr.PolyRing(GF7, 0, 3)
    for _ in range(2):
        coeffs = [rng.randint(1, 9) for _ in range(3)]
        f = sum((ring_q.var(f"y{i}").scale(c) for i, c in enumerate(coeffs)),
                ring_q.zero())
        reps.append(cr.hyperplane_rep(f))
        f7 = sum((ring_7.var(f"y{i}").scale(c) for i, c in enumerate(coeffs)),
                 ring_7.zero())
        reps.append(cr.hyperplane_rep(f7))
    ring_base = cr.PolyRing(QQ, 1, 2)
    reps.append(cr.hyperplane_rep(cr.parse_poly("t1*y0 + y1", ring_base)))
    reps.append(clock_rep(GF7, [1, 6]))            # d=2
    reps.append(clock_rep(GF7, [1, 2, 4]))         # d=3
    reps.append(clock_rep(GF5, [1, 2, 3, 4]))      # d=4
    reps.append(clock_rep(GF11, [1, 3, 9, 5, 4]))  # d=5, fifth roots of 1
    reps.append(cr.gamma_quadric_rep(cr.PolyRing(QQ, 0, 2), [1, 1]))
    reps.append(cr.gamma_quadric_rep(cr.PolyRing(QQ, 0, 3), [1, 1, 1]))
    reps.append(cr.gamma_quadric_rep(cr.PolyRing(QQ, 0, 4), [1, -1, 1, -1]))
    reps.append(cr.gamma_quadric_rep(cr.PolyRing(GF5, 0, 4), [1, 1, 1, 1]))
    reps.append(block_quadric_rep(QQ))
    return reps


@criterion(2, "Clifford-relation suite passes; bare phi fails at (0,0), < 10 s")
def test_criterion_02_relation_suite():
    start = time.perf_counter()
    reps = _relation_suite()
    assert len(reps) >= 11
    for rep in reps:
        assert rep.verified, repr(rep)
    ring = quadric_ring(QQ)
    bare = cr.CliffordRep(cr.extract(paper_phi(ring)), paper_f(ring), 2)
    cert = cr.verify_relation(bare)
    assert not cert.passed
    assert cert.witness[0] == (0, 0)
    assert time.perf_counter() - start < 10.0


@criterion(3, "Determinant lemma: det M = c * f^(t/d) exactly for every rep")
def test_criterion_03_determinant_lemma():
    for rep in _relation_suite():
        result = cr.det_factorization(rep)
        assert result.exponent == rep.size // rep.d
        assert result.unit  # nonzero field constant
        # exactness cross-check: c * f^r equals the determinant itself
        det = cr.poly_matrix_det(cr.assemble(rep.pencil))
        assert det == (rep.f ** result.exponent).scale(result.unit)


@criterion(4, "Rank divisibility + search over GF(3) finds representations")
def test_criterion_04_divisibility_and_search():
    ring = cr.PolyRing(GF3, 0, 2)
    f = cr.parse_poly("y0^2 - y1^2", ring)
    hits = cr.random_search(ring, f, 2, 2, seed=11, budget=100000)
    assert len(hits) >= 1
    reference = clock_rep(GF3, [1, 2])
    for hit in hits:
        assert hit.rep.verified
        assert hit.rep.size % hit.rep.d == 0
        result = cr.det_factorization(hit.rep)
        assert result.exponent == hit.rep.size // hit.rep.d
    assert any(cr.equivalence_test(h.rep, reference).verdict == "equivalent"
               for h in hits)


@criterion(5, "Hilbert functions equal t*C(e+n-1, n-1) for e <= 6, < 30 s")
def test_criterion_05_hilbert_functions():
    start = time.perf_counter()
    ring = quadric_ring(QQ)
    phi_hf = cr.hilbert_function(paper_phi(ring), 6).hilbert
    assert phi_hf == cr.expected_hilbert(2, 3, 6)
    assert phi_hf[:4] == [2, 6, 12, 20]

    block = block_quadric_rep(QQ)
    block_hf = cr.hilbert_function(cr.assemble(block.pencil), 6).hilbert
    assert block_hf == cr.expected_hilbert(4, 3, 6)
    assert block_hf[0] == block.d * block.clifford_index

    for rep in (clock_rep(QQ, [1, -1]), clock_rep(GF7, [1, 2, 4])):
        hf = cr.hilbert_function(cr.assemble(rep.pencil), 6).hilbert
        assert hf == cr.expected_hilbert(rep.size, 1, 6)
        assert hf[0] == rep.d * rep.clifford_index
    assert time.perf_counter() - start < 30.0


@criterion(6, "Corank r at 20+ smooth points, 0 at 20+ off points, no violations")
def test_criterion_06_corank_local_freeness():
    block = block_quadric_rep(QQ)  # sampled after reduction mod 101
    summary = cr.corank_sampling(block, prime=101, on_target=20,
                                 off_target=20, seed=6)
    assert summary.prime == 101
    assert summary.off_points >= 20 and summary.off_ok
    assert summary.on_smooth >= 20 and not summary.violations
    assert summary.expected_corank == 2

    clock = clock_rep(GF101, [1, 2, 3])
    summary = cr.corank_sampling(clock, on_target=20, off_target=20, seed=6)
    assert summary.prime == 101
    assert summary.off_points >= 20 and summary.off_ok
    assert summary.on_smooth >= 20 and not summary.violations
    assert summary.expected_corank == 1


@criterion(7, "Twist cohomology vanishes for all 1<=j<=n-1 iff d=1, < 1 s")
def test_criterion_07_degree_one_theorem():
    start = time.perf_counter()
    for n in range(2, 7):
        for d in range(1, 5):
            assert cr.trivial_bundle_fiber_ulrich(n, d) == (d == 1)
    spot = dict(cr.hypersurface_twist_cohomology(3, 2, 2))
    assert spot == {0: 0, 1: 0, 2: 1}
    assert time.perf_counter() - start < 1.0


@criterion(8, "Equivalence round trips: conjugates, rotated clocks, relation laws")
def test_criterion_08_equivalence_round_trips():
    rep = block_quadric_rep(GF7)
    rng = random.Random(88)
    for _ in range(20):
        theta = random_invertible(GF7, 4, rng)
        conj = cr.conjugate(rep, theta)
        result = cr.equivalence_test(rep, conj)
        assert result.verdict == "equivalent"

    rep1 = clock_rep(GF7, [1, 2, 4])
    rep2 = clock_rep(GF7, [2, 4, 1])
    result = cr.equivalence_test(rep1, rep2)
    assert result.verdict == "equivalent"
    for row in result.theta:  # the witness is a permutation matrix
        nonzero = [e for e in row if not e.is_zero()]
        assert len(nonzero) == 1

    a = rep
    b = cr.conjugate(rep, random_invertible(GF7, 4, rng))
    c = cr.conjugate(b, random_invertible(GF7, 4, rng))
    assert cr.equivalence_test(a, a).verdict == "equivalent"   # reflexive
    assert cr.equivalence_test(b, a).verdict == "equivalent"   # symmetric
    assert cr.equivalence_test(a, c).verdict == "equivalent"   # transitive


@criterion(9, "Irreducibility: algebra dims 16 and 9; direct sums reducible")
def test_criterion_09_irreducibility():
    block = block_quadric_rep(QQ)
    result = cr.irreducibility_check(block)
    assert (result.verdict, result.algebra_dim) == ("irreducible", 16)

    clock = clock_rep(GF7, [1, 2, 4])
    result = cr.irreducibility_check(clock)
    assert (result.verdict, result.algebra_dim) == ("irreducible", 9)

    double = cr.direct_sum(block, block)
    result = cr.irreducibility_check(double)
    assert result.verdict == "reducible"
    assert result.subspace and 0 < len(result.subspace) < double.size
    mats = double.scalar_matrices()
    for vec in result.subspace:  # explicitly invariant: A_i * v stays inside
        for m in mats:
            image = [x for x, in linalg.mat_mul(QQ, m, [[v] for v in vec])]
            reduced = _reduce_against(QQ, result.subspace, image)
            assert all(x == 0 for x in reduced)


def _reduce_against(field, basis, vec):
    v = list(vec)
    for b in basis:
        pivot = next((i for i, x in enumerate(b) if x), None)
        if pivot is not None and v[pivot]:
            c = field.div(v[pivot], b[pivot])
            v = [field.sub(x, field.mul(c, y)) for x, y in zip(v, b)]
    return v


@criterion(10, "Hom reduction: dim End = 1 and hom(twists) = m1*m2 for m <= 4")
def test_criterion_10_hom_reduction():
    rep = block_quadric_rep(GF7)  # same pencil as over QQ; GF(7) keeps the
    assert cr.hom_space_dim(rep, rep) == 1  # large solves exact and fast
    twists = {m: cr.twist_by_free(rep, m) for m in range(1, 5)}
    for m1 in range(1, 5):
        for m2 in range(1, 5):
            assert cr.hom_space_dim(twists[m1], twists[m2]) == m1 * m2
    # spot-check the same identity over QQ at small multiplicity
    rep_q = block_quadric_rep(QQ)
    assert cr.hom_space_dim(rep_q, rep_q) == 1
    assert cr.hom_space_dim(cr.twist_by_free(rep_q, 2),
                            cr.twist_by_free(rep_q, 2)) == 4


@criterion(11, "Base change: specialize and verify commute at 10 random points")
def test_criterion_11_base_change():
    ring = cr.PolyRing(QQ, 1, 2)
    hyper = cr.hyperplane_rep(cr.parse_poly("t1*y0 + y1", ring))
    assert hyper.verified

    matrix = [[ring.zero(), cr.parse_poly("y0 - t1*y1", ring)],
              [cr.parse_poly("y0 + t1*y1", ring), ring.zero()]]
    quadric = cr.CliffordRep(cr.extract(matrix),
                             cr.parse_poly("y0^2 - t1^2*y1^2", ring), 2)
    assert cr.verify_relation(quadric).passed

    rng = random.Random(1111)
    for rep in (hyper, quadric):
        for _ in range(10):
            point = {"t1": rng.randint(-30, 30)}
            fiber = cr.specialize_rep(rep, point)
            cert = cr.verify_relation(fiber)
            assert cert.passed
            assert fiber.pencil == cr.specialize(rep.pencil, point)
            assert fiber.f == rep.f.evaluate(point).map_to(fiber.ring)


@criterion(12, "Determinism: randomized verdicts replay byte-identically")
def test_criterion_12_determinism():
    block = block_quadric_rep(QQ)
    first = cr.corank_sampling(block, seed=31).to_payload()
    second = cr.corank_sampling(block, seed=31).to_payload()
    assert first == second

    ring = cr.PolyRing(GF3, 0, 2)
    f = cr.parse_poly("y0^2 - y1^2", ring)
    runs = [cr.random_search(ring, f, 2, 2, seed=7, budget=20000)
            for _ in range(2)]
    assert [(h.rep, h.count, h.sample_index) for h in runs[0]] == \
        [(h.rep, h.count, h.sample_index) for h in runs[1]]

    cert1 = cr.ulrich_certificate(block, cr.CertificateConfig(seed=12))
    cert2 = cr.ulrich_certificate(block, cr.CertificateConfig(seed=12))
    assert cert1.report.to_json() == cert2.report.to_json()
