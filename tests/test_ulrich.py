import hashlib
import itertools
import random

import pytest

import cliffrep as cr
from cliffrep import linalg, ulrich
from cliffrep.errors import BadPrime, InputError, SampleBudgetSpent, UnsupportedBase
from cliffrep.pencil import pencil_at
from conftest import (block_quadric_rep, clock_rep, paper_f, paper_phi, quadric_ring,
                      random_invertible)


# -- Hilbert functions ---------------------------------------------------------


def test_hilbert_paper_quadric(qq):
    ring = quadric_ring(qq)
    result = cr.hilbert_function(paper_phi(ring), 3)
    assert result.hilbert == [2, 6, 12, 20]
    assert result.hilbert == cr.expected_hilbert(2, 3, 3)


def test_hilbert_point_in_p1(qq):
    ring = cr.PolyRing(qq, 0, 2)
    result = cr.hilbert_function([[ring.var("y0")]], 3)
    assert result.hilbert == [1, 1, 1, 1]


def test_hilbert_block_rep(block_rep_qq):
    result = cr.hilbert_function(cr.assemble(block_rep_qq.pencil), 2)
    assert result.hilbert == [4, 12, 24]


def test_hilbert_rejects_singular_presentation(qq):
    ring = cr.PolyRing(qq, 0, 2)
    y0, y1 = ring.var("y0"), ring.var("y1")
    for matrix in ([[y0, ring.zero()], [ring.zero(), ring.zero()]],
                   [[y0, y1], [y0 + y0, y1 + y1]],
                   [[y0, y1, y0 - y1], [y1, y0, y1 - y0], [y0 + y1, y0 + y1, ring.zero()]]):
        with pytest.raises(InputError):
            cr.hilbert_function(matrix, 2)


def test_hilbert_det_vanishing_at_every_point():
    # det = y0*y1*(y0 + y1) is nonzero but vanishes on all of GF(2)^2, so
    # no evaluation proves det != 0 and the symbolic determinant decides
    ring = cr.PolyRing(cr.prime_field(2), 0, 2)
    y0, y1 = ring.var("y0"), ring.var("y1")
    matrix = cr.zero_matrix(ring, 3)
    for i, entry in enumerate((y0, y1, y0 + y1)):
        matrix[i][i] = entry
    assert cr.hilbert_function(matrix, 4).hilbert == cr.expected_hilbert(3, 1, 4)


def test_hilbert_requires_base_free(qq):
    ring = cr.PolyRing(qq, 1, 2)
    with pytest.raises(UnsupportedBase):
        cr.hilbert_function([[ring.var("y0")]], 2)


def test_hilbert_over_prime_field(gf7):
    rep = clock_rep(gf7, [1, 2, 4])
    result = cr.hilbert_function(cr.assemble(rep.pencil), 6)
    assert result.hilbert == cr.expected_hilbert(3, 1, 6)
    assert result.hilbert == [3] * 7


def test_expected_hilbert_values(qq):
    assert cr.expected_hilbert(2, 3, 3) == [2, 6, 12, 20]
    assert cr.expected_hilbert(1, 1, 2) == [1, 1, 1]
    for t in (1, 2, 5):
        for n in (1, 2, 3):
            assert cr.expected_hilbert(t, n, 0)[0] == t
    # one fiber variable: P^0, where coker(y0*I) is t copies of k
    assert cr.expected_hilbert(2, 0, 3) == [2, 0, 0, 0]
    ring = cr.PolyRing(qq, 0, 1)
    y0 = ring.var("y0")
    result = cr.hilbert_function([[y0, ring.zero()], [ring.zero(), y0]], 3)
    assert result.hilbert == [2, 0, 0, 0]


# -- corank sampling ------------------------------------------------------------


def test_corank_block_quadric(block_rep_qq):
    summary = cr.corank_sampling(block_rep_qq, 101, on_target=25,
                                 off_target=25, seed=3)
    assert summary.off_points >= 25 and summary.off_ok
    assert summary.on_smooth >= 25
    assert not summary.violations
    assert set(summary.corank_histogram) == {2}


def test_corank_clock_shift(clock3_gf7):
    summary = cr.corank_sampling(clock3_gf7, on_target=20, off_target=20, seed=1)
    assert summary.off_ok
    assert summary.on_smooth >= 20 and not summary.violations
    assert set(summary.corank_histogram) == {1}


def test_corank_requires_verified(qq):
    ring = quadric_ring(qq)
    rep = cr.CliffordRep(cr.extract(paper_phi(ring)), paper_f(ring), 2)
    with pytest.raises(InputError):
        cr.corank_sampling(rep)


def test_bad_prime_rejected(qq):
    ring = cr.PolyRing(qq, 0, 2)
    rep = cr.hyperplane_rep(cr.parse_poly("101*y0 + 202*y1", ring))
    with pytest.raises(BadPrime):
        cr.corank_sampling(rep, prime=101)
    rep2 = cr.hyperplane_rep(cr.parse_poly("y0 + 1/101*y1", ring))
    with pytest.raises(BadPrime):
        cr.corank_sampling(rep2, prime=101)


def test_corank_deterministic(block_rep_qq):
    a = cr.corank_sampling(block_rep_qq, seed=11).to_payload()
    b = cr.corank_sampling(block_rep_qq, seed=11).to_payload()
    assert a == b


def pinned_sampling(name):
    qq = cr.rationals()
    if name == "clock_10007":
        return cr.corank_sampling(clock_rep(cr.prime_field(10007), [5, 1234, 9876]),
                                  prime=10007, seed=0)
    if name == "block_qq_1009":
        return cr.corank_sampling(block_quadric_rep(qq), prime=1009, seed=0)
    if name == "gamma4_101":
        ring = cr.PolyRing(cr.prime_field(101), 0, 4)
        return cr.corank_sampling(cr.gamma_quadric_rep(ring, [1, 2, 3, 4]),
                                  prime=101, seed=0)
    return cr.corank_sampling(clock_rep(qq, [1, 1]), max_tries=200)


# Recorded while slices were solved by scanning all of GF(p): finding their
# roots by gcds must leave the seeded draws, the points and their order alone.
PINNED_PAYLOADS = {
    "clock_10007": {
        "prime": 10007, "seed": 0, "expected_corank": 1, "off_points": 20,
        "off_corank_zero": 20, "on_points": 20, "on_smooth": 20, "on_singular": 0,
        "corank_histogram": {"1": 20}, "violations": []},
    "block_qq_1009": {
        "prime": 1009, "seed": 0, "expected_corank": 2, "off_points": 20,
        "off_corank_zero": 20, "on_points": 20, "on_smooth": 20, "on_singular": 0,
        "corank_histogram": {"2": 20}, "violations": []},
    "gamma4_101": {
        "prime": 101, "seed": 0, "expected_corank": 2, "off_points": 20,
        "off_corank_zero": 20, "on_points": 20, "on_smooth": 20, "on_singular": 0,
        "corank_histogram": {"2": 20}, "violations": []},
    "nonreduced_qq": {
        "prime": 101, "seed": 0, "expected_corank": 1, "off_points": 20,
        "off_corank_zero": 20, "on_points": 178, "on_smooth": 0,
        "on_singular": 178, "corank_histogram": {"2": 178}, "violations": []},
}


@pytest.mark.parametrize("name", sorted(PINNED_PAYLOADS))
def test_corank_payload_pinned(name):
    assert pinned_sampling(name).to_payload() == PINNED_PAYLOADS[name]


def sampled_case(name):
    """(rep, sampling keywords) of one case whose visited points are pinned."""
    qq, gf7, gf101 = cr.rationals(), cr.prime_field(7), cr.prime_field(101)
    return {
        "clock_7": (clock_rep(gf7, [1, 2, 4]), {}),
        "clock_101": (clock_rep(gf101, [3, 17, 55]), {}),
        "clock_10007": (clock_rep(cr.prime_field(10007), [5, 1234, 9876]),
                        {"prime": 10007}),
        "quadric_7": (clock_rep(gf7, [2, 5]), {}),
        "block_qq_1009": (block_quadric_rep(qq), {"prime": 1009}),
        "gamma4_101": (cr.gamma_quadric_rep(cr.PolyRing(gf101, 0, 4), [1, 2, 3, 4]), {}),
        "nonreduced_qq": (clock_rep(qq, [1, 1]), {"max_tries": 200}),
    }[name]


# sha256 of the repr of the point of every evaluation of f or of its gradient
# in corank_sampling, seeds 0-3 in turn, recorded while every off and smooth
# point was still ranked: the seeded draws, the points and their order must
# not move
PINNED_VISITED_POINTS = {
    "block_qq_1009": "f37f08c3b5a01d6f3af1a7f61f2c04263190c91c70c0b23e9e39f159e6ab09de",
    "clock_101": "15a5433a352b4676934977799d3e453b09608ff05ca60c7fe95740d3e56eea07",
    "clock_10007": "84c03bf1c5e1068f8175fddbd8e97519fe3fff3afdca9c76a885a9b070c4eb0b",
    "clock_7": "d9f3c3cafa925a511afd30c63e19c08a1312d556258be5aa932a87c78cb07c12",
    "gamma4_101": "ed5801026fafdd899cba198a88149fbab35ea982651836313e0600f62677ec94",
    "nonreduced_qq": "11fc55210db3cb06ff562de7551492c0162e999d430e7087e236a59216acfb4a",
    "quadric_7": "a15fcbeee5c2672d191f765ad34aab6560fc4d1784a4615fd1e006336f6c624b",
}


@pytest.mark.parametrize("name", sorted(PINNED_VISITED_POINTS))
def test_corank_visited_points_pinned(name, monkeypatch):
    visited, ranked = [], []
    at, rank = ulrich._at, linalg.rank

    def recording_at(terms, values, p):
        visited.append(tuple(values))
        return at(terms, values, p)

    def recording_rank(field, matrix):
        ranked.append(matrix)
        return rank(field, matrix)

    monkeypatch.setattr(ulrich, "_at", recording_at)
    monkeypatch.setattr(linalg, "rank", recording_rank)
    rep, keywords = sampled_case(name)
    singular = sum(cr.corank_sampling(rep, seed=seed, **keywords).on_singular
                   for seed in range(4))
    digest = hashlib.sha256(repr(visited).encode()).hexdigest()
    assert digest == PINNED_VISITED_POINTS[name]
    # the relation fixes the corank off V(f) and at smooth points: only
    # singular points are ranked
    assert len(ranked) == singular


def test_corank_sampling_rejects_negative_budgets():
    rep = clock_rep(cr.prime_field(101), [3, 17, 55])
    for keyword, value in (("max_tries", -5), ("on_target", -1), ("off_target", -1)):
        with pytest.raises(InputError, match=keyword) as caught:
            cr.corank_sampling(rep, **{keyword: value})
        assert not isinstance(caught.value, SampleBudgetSpent)
    with pytest.raises(SampleBudgetSpent):  # an empty budget is still a budget
        cr.corank_sampling(rep, max_tries=0)


def test_corank_sampling_evaluates_no_polys(evaluate_calls):
    assert pinned_sampling("clock_10007").on_smooth == 20
    # a scan of GF(10007) on every slice made 64,654 calls here
    assert len(evaluate_calls) < 1000


def test_corank_clock_cubic_large_prime():
    p = 1000003
    summary = cr.corank_sampling(clock_rep(cr.prime_field(p), [3, 17, 999983]),
                                 prime=p, seed=0)
    assert summary.on_smooth == 20 and summary.off_ok
    assert not summary.violations
    assert summary.corank_histogram == {1: 20}


def projective_points(n, p):
    """Every point of P^(n-1)(GF(p)), its first nonzero coordinate 1."""
    for lead in range(n):
        for tail in itertools.product(range(p), repeat=n - lead - 1):
            yield (0,) * lead + (1,) + tail


def partials(f, p):
    return [cr.Poly(f.ring, {exp[:i] + (exp[i] - 1,) + exp[i + 1:]: c * exp[i] % p
                             for exp, c in f.terms.items() if c * exp[i] % p})
            for i in range(f.ring.nvars)]


def test_relation_fixes_coranks_at_every_point():
    # the proof corank_sampling rests on, checked by ranking M(q) at every
    # point, p | d included: corank 0 off V(f), r at smooth points and
    # r <= corank <= t at singular ones
    gf = cr.prime_field

    def gamma(p, coeffs):
        return cr.gamma_quadric_rep(cr.PolyRing(gf(p), 0, len(coeffs)), coeffs)

    gamma4 = gamma(7, [1, 2, 3, 4])
    theta = random_invertible(gf(7), gamma4.size, random.Random(0))
    reps = [clock_rep(gf(2), [0, 1]), clock_rep(gf(2), [1, 1]),
            clock_rep(gf(3), [0, 1, 2]), clock_rep(gf(3), [1, 1, 1]),
            clock_rep(gf(5), [1, 1, 1]), clock_rep(gf(7), [1, 2, 4]),
            clock_rep(gf(7), [1, 1, 2]), gamma(3, [1, 1, 2]), gamma(7, [1, 2, 3]),
            gamma4, block_quadric_rep(gf(7)),
            cr.direct_sum(gamma4, cr.conjugate(gamma4, theta)),
            cr.twist_by_free(clock_rep(gf(7), [1, 2, 4]), 2)]
    seen = {"off": 0, "smooth": 0, "singular": 0}
    for rep in reps:
        assert rep.verified
        field, t, r = rep.ring.field, rep.size, rep.clifford_index
        gradient = partials(rep.f, field.p)
        for values in projective_points(rep.ring.fiber_count, field.p):
            point = dict(zip(rep.ring.names, values))
            corank = t - linalg.rank(field, pencil_at(rep.pencil, point))
            if rep.f.evaluate(point).constant():
                seen["off"] += 1
                assert corank == 0, (rep, values)
            elif any(g.evaluate(point).constant() for g in gradient):
                seen["smooth"] += 1
                assert corank == r, (rep, values)
            else:
                seen["singular"] += 1
                assert r <= corank <= t, (rep, values)
    assert all(seen.values()), seen


# -- Fitting exponent --------------------------------------------------------------


def test_fitting_exponent_values(qq, block_rep_qq):
    assert cr.fitting_exponent(block_rep_qq) == 2
    ring = cr.PolyRing(qq, 0, 2)
    hyper = cr.hyperplane_rep(cr.parse_poly("2*y0 + 3*y1", ring))
    assert cr.fitting_exponent(hyper) == 1
    twisted = cr.twist_by_free(block_rep_qq, 2)
    assert cr.fitting_exponent(twisted) == 4


# -- closed-form cohomology ---------------------------------------------------------


def test_pn_cohomology_table():
    assert dict(cr.pn_line_bundle_cohomology(3, -4)) == {0: 0, 1: 0, 2: 0, 3: 1}
    assert dict(cr.pn_line_bundle_cohomology(3, -2)) == {0: 0, 1: 0, 2: 0, 3: 0}
    assert dict(cr.pn_line_bundle_cohomology(2, 1)) == {0: 3, 1: 0, 2: 0}
    assert dict(cr.pn_line_bundle_cohomology(4, 0)) == {0: 1, 1: 0, 2: 0, 3: 0, 4: 0}
    with pytest.raises(InputError):
        cr.pn_line_bundle_cohomology(0, 1)


def test_hypersurface_twist_tables():
    assert dict(cr.hypersurface_twist_cohomology(3, 2, 2)) == {0: 0, 1: 0, 2: 1}
    for j in (1, 2):
        table = cr.hypersurface_twist_cohomology(3, 1, j)
        assert all(h == 0 for _, h in table)
    assert dict(cr.hypersurface_twist_cohomology(4, 3, 3))[3] == 5
    with pytest.raises(InputError):
        cr.hypersurface_twist_cohomology(3, 2, 3)
    with pytest.raises(InputError):
        cr.hypersurface_twist_cohomology(3, 2, 0)


def test_trivial_bundle_fiber_ulrich_iff_degree_one():
    for n in range(2, 7):
        for d in range(1, 5):
            assert cr.trivial_bundle_fiber_ulrich(n, d) == (d == 1)


# -- certificates --------------------------------------------------------------------


def test_certificate_block_quadric(block_rep_qq):
    cert = cr.ulrich_certificate(block_rep_qq)
    assert cert.passed
    statuses = {r.name: r.status for r in cert.report.records}
    for name in ("clifford-relation", "determinant-factorization",
                 "hilbert-function", "global-sections", "corank-sampling",
                 "smoothness-sampling"):
        assert statuses[name] == "pass"


def test_certificate_bare_phi_records_mf_only(qq):
    ring = quadric_ring(qq)
    rep = cr.CliffordRep(cr.extract(paper_phi(ring)), paper_f(ring), 2)
    cert = cr.ulrich_certificate(rep)
    assert not cert.passed
    relation = next(r for r in cert.report.records
                    if r.name == "clifford-relation")
    assert relation.status == "fail"
    assert relation.witness.get("mf_only") is True


def test_certificate_mf_only_needs_det_unit_times_f(qq):
    # neither matrix squares to f*I; only [[y0, y1], [-y1, y0]] has det = f,
    # so only it is half of the matrix factorization (M, adj M) of f
    ring = cr.PolyRing(qq, 0, 2)
    f = cr.parse_poly("y0^2 + y1^2", ring)
    for lower, mf_only in (("y1", None), ("-y1", True)):
        matrix = [[cr.parse_poly(s, ring) for s in row]
                  for row in (("y0", "y1"), (lower, "y0"))]
        cert = cr.ulrich_certificate(cr.CliffordRep(cr.extract(matrix), f, 2))
        relation = next(r for r in cert.report.records
                        if r.name == "clifford-relation")
        assert relation.status == "fail"
        assert relation.witness.get("mf_only") is mf_only


def test_certificate_rejects_inhomogeneous_form(qq):
    ring = cr.PolyRing(qq, 0, 2)
    rep = cr.CliffordRep(cr.extract([[ring.var("y0")]]),
                         cr.parse_poly("y0^2 + y1", ring), 2)
    cert = cr.ulrich_certificate(rep)
    assert cert.report.verdict == "fail"
    [relation] = cert.report.records
    assert relation.name == "clifford-relation" and relation.status == "fail"
    assert "homogeneous" in relation.witness["error"]


def test_certificate_mf_only_probe_on_non_multiple_of_f(qq):
    # det [[y0, y1], [y1, y0]] = y0^2 - y1^2 is no constant times f = y0^2
    ring = cr.PolyRing(qq, 0, 2)
    matrix = [[cr.parse_poly(s, ring) for s in row] for row in (("y0", "y1"), ("y1", "y0"))]
    cert = cr.ulrich_certificate(cr.CliffordRep(cr.extract(matrix),
                                                cr.parse_poly("y0^2", ring), 2))
    assert cert.report.verdict == "fail"
    [relation] = cert.report.records
    assert relation.name == "clifford-relation" and relation.status == "fail"
    assert "mf_only" not in relation.witness
    # det(y0*I) = y0^2 is no constant times f = y0*y1
    y0 = ring.var("y0")
    cert = cr.ulrich_certificate(cr.CliffordRep(
        cr.extract([[y0, ring.zero()], [ring.zero(), y0]]),
        cr.parse_poly("y0*y1", ring), 2))
    [relation] = cert.report.records
    assert relation.status == "fail" and "mf_only" not in relation.witness


def test_certificate_nonreduced_clock(qq):
    rep = clock_rep(qq, [1, 1])
    cert = cr.ulrich_certificate(rep)
    assert not cert.passed
    statuses = {r.name: r.status for r in cert.report.records}
    assert statuses["smoothness-sampling"] == "fail"
    assert any("repeated roots" in str(r.witness) for r in cert.report.records
               if r.name == "note")


def test_certificate_one_fiber_variable(qq):
    # V(3*y0) has no point in P^0, so corank sampling finds no witness;
    # a small sampling prime keeps the fruitless scan short
    rep = cr.hyperplane_rep(cr.parse_poly("3*y0", cr.PolyRing(qq, 0, 1)))
    cert = cr.ulrich_certificate(rep, cr.CertificateConfig(sample_prime=2))
    assert cert.report.verdict == "fail"
    records = {r.name: r for r in cert.report.records}
    assert records["hilbert-function"].status == "pass"
    assert records["global-sections"].status == "pass"
    assert records["corank-sampling"].status == "fail"
    assert "no points on the hypersurface" in records["corank-sampling"].witness["error"]


def test_certificate_one_fiber_variable_default_prime(qq):
    # V(3*y0) in P^0 is empty: decided before any slice is scanned
    rep = cr.hyperplane_rep(cr.parse_poly("3*y0", cr.PolyRing(qq, 0, 1)))
    cert = cr.ulrich_certificate(rep)
    assert cert.report.budgets["sample_prime"] == 101
    records = {r.name: r for r in cert.report.records}
    assert records["corank-sampling"].status == "fail"
    assert records["corank-sampling"].witness["error"] == (
        "found no points on the hypersurface within the budget")
    with pytest.raises(InputError, match="no points on the hypersurface"):
        cr.corank_sampling(rep)


def test_certificate_base_parametrized(qq):
    ring = cr.PolyRing(qq, 1, 2)
    rep = cr.hyperplane_rep(cr.parse_poly("t1*y0 + y1", ring))
    config = cr.CertificateConfig(base_points=[{"t1": qq.of(2)}, {"t1": qq.of(-3)}])
    cert = cr.ulrich_certificate(rep, config)
    assert cert.passed
    names = [r.name for r in cert.report.records]
    assert "base0:hilbert-function" in names
    assert "base1:corank-sampling" in names


def test_certificate_skips_fibers_without_base_points(qq):
    ring = cr.PolyRing(qq, 1, 2)
    rep = cr.hyperplane_rep(cr.parse_poly("t1*y0 + y1", ring))
    cert = cr.ulrich_certificate(rep)
    assert cert.passed  # relation and determinant only; fiber checks skipped
    statuses = {r.name: r.status for r in cert.report.records}
    assert statuses["fiber-checks"] == "skipped"


def test_certificate_fails_a_base_point_where_f_vanishes(qq):
    ring = cr.PolyRing(qq, 1, 2)
    rep = cr.hyperplane_rep(cr.parse_poly("t1*y0", ring))
    config = cr.CertificateConfig(base_points=[{"t1": qq.of(0)}, {"t1": qq.of(2)}])
    cert = cr.ulrich_certificate(rep, config)
    records = {r.name: r for r in cert.report.records}
    assert records["base0:relation"].status == "fail"
    assert str(rep.f) in records["base0:relation"].witness["error"]
    assert "base0:hilbert-function" not in records
    assert records["base1:relation"].status == "pass"
    assert "base1:corank-sampling" in records
    assert not cert.passed


def test_reduce_rep_mod_prime_guard(qq, block_rep_qq):
    reduced = cr.reduce_rep_mod_prime(block_rep_qq, 101)
    assert reduced.ring.field.p == 101
    assert reduced.verified


# -- the determinant certificate from the relation ------------------------------


def _statuses(cert):
    return {r.name: r.status for r in cert.report.records}


def test_certificates_take_no_symbolic_determinant(qq, det_calls):
    gf101 = cr.prime_field(101)
    gamma8 = cr.gamma_quadric_rep(cr.PolyRing(gf101, 0, 6), [3, 5, 7, 11, 13, 17])
    gamma_qq = cr.gamma_quadric_rep(cr.PolyRing(qq, 0, 4), [2, -2, 5, -5])
    base = cr.hyperplane_rep(cr.parse_poly("3*t1*y0 - 4*y1 + y2",
                                           cr.PolyRing(qq, 1, 3)))
    base_config = cr.CertificateConfig(base_points=[{"t1": qq.of(2)},
                                                    {"t1": qq.of(-5)}])
    for rep, config in ((gamma8, None), (gamma_qq, None), (base, base_config)):
        cert = cr.ulrich_certificate(rep, config)
        assert cert.passed
        assert _statuses(cert)["determinant-factorization"] == "pass"
    assert "base1:corank-sampling" in _statuses(cert)
    assert det_calls == []


def test_certificate_gamma_sixteen(det_calls):
    # t = 16: the symbolic determinant of this pencil does not finish in
    # minutes; one point reads the unit off the relation
    field = cr.prime_field(101)
    rep = cr.gamma_quadric_rep(cr.PolyRing(field, 0, 8),
                               [3, 5, 7, 11, 13, 17, 19, 23])
    assert rep.size == 16
    cert = cr.ulrich_certificate(rep)
    assert cert.passed
    assert det_calls == []
    unit = cr.det_factorization(rep).unit
    witness = next(r.witness for r in cert.report.records
                   if r.name == "determinant-factorization")
    assert witness == {"unit": str(unit), "exponent": 8}
    mats = rep.scalar_matrices()
    rng = random.Random(0)
    for _ in range(5):  # det M(q) = unit * f(q)^8 at seeded points
        q = [rng.randrange(101) for _ in range(8)]
        m = [[sum(v * a[i][j] for v, a in zip(q, mats)) % 101
              for j in range(16)] for i in range(16)]
        value = rep.f.evaluate(dict(zip(rep.ring.names, q))).constant()
        assert linalg.det(field, m) == unit * pow(value, 8, 101) % 101


def test_bad_prime_of_verified_rep_takes_no_determinant(qq, det_calls):
    rep = cr.hyperplane_rep(cr.parse_poly("101*y0 + 202*y1",
                                          cr.PolyRing(qq, 0, 2)))
    with pytest.raises(BadPrime, match="det\\(M\\) vanishes mod 101"):
        cr.reduce_rep_mod_prime(rep, 101)
    assert det_calls == []
