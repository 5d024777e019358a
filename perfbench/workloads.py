"""The four workloads: seeded inputs, the checks of one pass, their oracles.

``setup(name, seed, out_dir)`` builds a workload's inputs with cliffrep's
constructors (which verify M(y)^d = f*I), writes its pencils to ``out_dir``
and returns the checks of one pass.  A check is one call into cliffrep's
public API; its ``verify`` recomputes what the answer must be with the
benchmark's own arithmetic (``oracles``) and raises AssertionError on a
wrong answer.  Every pass runs the same list, so a run of whole passes has
the same mix of checks whatever its length.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import cliffrep as cr
from cliffrep import cli, constructors
from cliffrep.errors import GammaConstructionError
from cliffrep.reports import Report

import oracles as orc

WORKLOADS = ("certify", "sample", "structure", "search")

# Diagonal quadrics over QQ whose quaternion algebras are nonsplit: the
# gamma constructor's bounded norm-equation search raises on them although
# a representation exists.  They stay in every certify pass as constructions
# and count as failed until the constructor is mended.
NONSPLIT_GAMMA_QQ = ((1, 2, 3, 4), (1, -2, 3, -4, 5, -6))

SAMPLE_TARGET = 20  # corank_sampling's default on- and off-point targets
NONREDUCED_TRIES = 200


def smooth_witness_floor(f, p):
    """The fewest smooth witnesses a sampler aiming at SAMPLE_TARGET must find.

    V(f) may have fewer smooth points than the target: a clock cubic has
    three.  A lazy value, so that counting them is oracle work, not set-up.
    """
    return functools.cache(lambda: orc.smooth_points_at_least(f, p, SAMPLE_TARGET))


@dataclass
class Check:
    name: str
    call: Callable[[], object]
    verify: Callable[[object], None]
    replays: str | None = None      # name of the check this one repeats
    known_fault: type | None = None  # exception that counts the check failed


# -- shared helpers ---------------------------------------------------------


def run_cli(argv):
    """cliffrep's CLI entry point, in process: (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.cli_dispatch(argv)
    return code, buf.getvalue()


def cli_text(result, codes=(0,)):
    """The stdout of a CLI call whose exit code must be one of ``codes``."""
    code, text = result
    assert code in codes, f"exit code {code}"
    return text


def block_quadric(field):
    """The paper's 4x4 block rep [[0, phi], [adj phi, 0]] of y0*y3 - y1*y2."""
    ring = cr.PolyRing(field, 0, 4)
    phi = [[cr.parse_poly(s, ring) for s in row]
           for row in (("y0", "y1"), ("y2", "y3"))]
    f = cr.parse_poly("y0*y3 - y1*y2", ring)
    return cr.block_from_mf(cr.MFPair(phi, cr.adjugate(phi), f))


def clock(field, roots):
    ring = cr.PolyRing(field, 0, 2)
    return cr.clock_shift_rep(cr.SplitBinaryForm.from_roots(ring, roots))


def gamma(field, coeffs):
    return cr.gamma_quadric_rep(cr.PolyRing(field, 0, len(coeffs)), coeffs)


# Nonzero entries of the generators in the one density class that seeded
# gamma pencils are drawn from.  Whether each norm equation needs z != 0
# decides the density, and the symbolic determinant of a t = 8 pencil costs
# from about 55 ms to about 900 ms across the classes; fixing the class keeps
# the work of a pass the same from seed to seed while the coefficients vary.
GAMMA_DENSITY = {4: 28, 5: 72, 6: 104}


def seeded_gamma(field, nvars, rng):
    """A gamma pencil with seeded nonzero coefficients, in a fixed class."""
    while True:
        coeffs = nonzero(rng, field.p, nvars)
        gens = constructors.gamma_generators(field, coeffs)
        if sum(1 for g in gens for row in g for x in row if x) == GAMMA_DENSITY[nvars]:
            return gamma(field, coeffs)


def nonzero(rng, p, count):
    return [rng.randrange(1, p) for _ in range(count)]


def check_relation_at_points(rep, p, rng, points=3):
    """M(y)^d = f(y)*I at seeded points, with the oracle's arithmetic."""
    nvars = rep.ring.nvars
    for _ in range(points):
        values = [orc.reduce(rng.randint(-30, 30), p) for _ in range(nvars)]
        m = orc.pencil_at(rep, values, p)
        power = m
        for _ in range(rep.d - 1):
            power = orc.mat_mul(power, m, p)
        value = orc.poly_at(rep.f, values, p)
        want = [[value if i == j else 0 for j in range(rep.size)]
                for i in range(rep.size)]
        assert power == want, "relation fails at a sampled point"


# -- certify ----------------------------------------------------------------

# Hilbert degree caps: high enough that the Macaulay ranks are real work on
# the small pencils, low on the 8x8 ones where the determinant dominates.
# With these, a pass times 15 certificates in four cost groups: six light
# ones (10-25 ms); the base-parametrized hyperplane, the GF(101) block
# quadric and gamma-4 pencil (40-70 ms), whose middle holds the median; the
# gamma-5 pencil and four QQ quadrics (300-450 ms), whose middle holds the
# 75th percentile; and the gamma-6 pencil (about 1 s).
CERTIFY_MAX_DEGREE = {"block_qq": 6, "block_101": 6, "clock_7": 6,
                      "clock2_7": 6, "clock_101": 6, "gamma4_101": 5,
                      "gamma5_101": 2, "gamma6_101": 2, "gamma_qq": 6,
                      "gamma_qq_hyp0": 6, "gamma_qq_hyp1": 6,
                      "hyperplane_qq": 6, "hyperplane_101": 6,
                      "hyperplane_base": 6}
SAMPLE_PRIME_QQ = 101


def _certify_corpus(rng):
    qq, gf7, gf101 = cr.rationals(), cr.prime_field(7), cr.prime_field(101)
    corpus = {
        "block_qq": block_quadric(qq),
        "block_101": block_quadric(gf101),
        "clock_7": clock(gf7, rng.sample(range(7), 3)),
        "clock2_7": clock(gf7, rng.sample(range(7), 2)),
        "clock_101": clock(gf101, rng.sample(range(101), 3)),
        "gamma4_101": seeded_gamma(gf101, 4, rng),
        "gamma5_101": seeded_gamma(gf101, 5, rng),
        "gamma6_101": seeded_gamma(gf101, 6, rng),
        "gamma_qq": gamma(qq, [1, -1, 1, -1]),
    }
    # a*(y0^2 - y1^2) + b*(y2^2 - y3^2): split, so the constructor succeeds
    for k in range(2):
        a, b = rng.randint(1, 6), rng.randint(1, 6)
        corpus[f"gamma_qq_hyp{k}"] = gamma(qq, [a, -a, b, -b])
    ring = cr.PolyRing(qq, 0, 3)
    coeffs = [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(3)]
    corpus["hyperplane_qq"] = cr.hyperplane_rep(
        sum((ring.var(f"y{i}").scale(c) for i, c in enumerate(coeffs)),
            ring.zero()))
    ring = cr.PolyRing(gf101, 0, 4)
    corpus["hyperplane_101"] = cr.hyperplane_rep(
        sum((ring.var(f"y{i}").scale(c)
             for i, c in enumerate(nonzero(rng, 101, 4))), ring.zero()))
    ring = cr.PolyRing(qq, 1, 3)
    a, b = rng.randint(1, 9), rng.randint(1, 9)
    corpus["hyperplane_base"] = cr.hyperplane_rep(
        cr.parse_poly(f"{a}*t1*y0 - {b}*y1 + y2", ring))
    return corpus


def verify_certificate(text, rep, max_degree, seed, base_points, rng, floor):
    """A canonical ulrich-check report against what the theory forces.

    ``floor()`` is the fewest smooth witnesses the sampling must report.
    """
    assert "timing" not in text, "canonical report carries a timing field"
    doc = json.loads(text)
    assert doc["verdict"] == "pass", doc["verdict"]
    assert doc["seed"] == seed and doc["budgets"]["max_degree"] == max_degree
    checks = {c["name"]: c for c in doc["checks"]}
    t, d = rep.size, rep.d
    r = t // d
    relation = checks["clifford-relation"]
    assert relation["status"] == "pass"
    assert relation["witness"] == {"t": t, "d": d, "r": r}
    field = rep.ring.field
    p = field.p if field.kind == "GF" else None
    det = checks["determinant-factorization"]
    assert det["status"] == "pass" and det["witness"]["exponent"] == r
    unit = orc.reduce(Fraction(det["witness"]["unit"]), p)
    assert unit, "determinant unit is zero"
    for _ in range(3):  # det M(pt) = c * f(pt)^r at seeded points
        values = [orc.reduce(rng.randint(-30, 30), p)
                  for _ in range(rep.ring.nvars)]
        lhs = orc.det(orc.pencil_at(rep, values, p), p)
        rhs = unit * orc.poly_at(rep.f, values, p) ** r
        assert lhs == (rhs if p is None else rhs % p), "det unit is wrong"
    prefixes = [f"base{k}:" for k in range(len(base_points))] or [""]
    nvars = rep.ring.fiber_count
    hilbert = orc.hilbert_closed_form(t, nvars, max_degree)
    sample_prime = p or SAMPLE_PRIME_QQ
    for prefix in prefixes:
        if prefix:
            assert checks[prefix + "relation"]["status"] == "pass"
        h = checks[prefix + "hilbert-function"]
        assert h["status"] == "pass" and h["witness"]["computed"] == hilbert
        sections = checks[prefix + "global-sections"]["witness"]
        assert sections == {"h0": d * r, "dr": d * r}
        corank = checks[prefix + "corank-sampling"]
        w = corank["witness"]
        assert corank["status"] == "pass"
        assert w["prime"] == sample_prime and w["expected_corank"] == r
        assert w["off_points"] == w["off_corank_zero"] == SAMPLE_TARGET
        assert w["on_smooth"] >= floor() and not w["violations"]
        assert checks[prefix + "smoothness-sampling"]["status"] == "pass"


def _certify(seed, out_dir):
    rng = random.Random(seed)
    corpus = _certify_corpus(rng)
    paths = {}
    for label, rep in corpus.items():
        paths[label] = os.path.join(out_dir, f"{label}.pencil")
        cr.save_pencil(rep, paths[label], metadata={"label": label})
    base_points = [{"t1": rng.randint(1, 9)}, {"t1": -rng.randint(1, 9)}]
    checks = []

    def cert_check(label, name=None, replays=None):
        rep, cap = corpus[label], CERTIFY_MAX_DEGREE[label]
        argv = ["ulrich-check", paths[label], "--json", "--seed", str(seed),
                "--max-degree", str(cap), "--prime", str(SAMPLE_PRIME_QQ)]
        oracle_rng = random.Random(f"{seed}:{label}")
        field = rep.ring.field
        floor = smooth_witness_floor(
            rep.f, field.p if field.kind == "GF" else SAMPLE_PRIME_QQ)
        return Check(name or "certify:" + label, lambda: run_cli(argv),
                     lambda out: verify_certificate(cli_text(out), rep, cap,
                                                    seed, [], oracle_rng, floor),
                     replays=replays)

    for label in corpus:
        if label != "hyperplane_base":
            checks.append(cert_check(label))

    rep_base = corpus["hyperplane_base"]
    cap = CERTIFY_MAX_DEGREE["hyperplane_base"]
    base_rng = random.Random(f"{seed}:hyperplane_base")
    base_floor = smooth_witness_floor(rep_base.f, SAMPLE_PRIME_QQ)

    def base_call():
        rep, _ = cr.read_pencil(paths["hyperplane_base"])
        config = cr.CertificateConfig(
            max_degree=cap, seed=seed,
            base_points=[{k: rep.ring.field.of(v) for k, v in pt.items()}
                         for pt in base_points])
        return cr.ulrich_certificate(rep, config).report.to_json()

    checks.append(Check(
        "certify:hyperplane_base", base_call,
        lambda out: verify_certificate(out, rep_base, cap, seed, base_points,
                                       base_rng, base_floor)))

    for coeffs in NONSPLIT_GAMMA_QQ:
        ring = cr.PolyRing(cr.rationals(), 0, len(coeffs))
        checks.append(Check(
            "construct:gamma_qq_" + "_".join(map(str, coeffs)),
            lambda ring=ring, coeffs=coeffs: cr.gamma_quadric_rep(ring, coeffs),
            lambda rep: check_relation_at_points(rep, None, random.Random(seed)),
            known_fault=GammaConstructionError))

    checks.append(cert_check("clock_101", "replay:certify:clock_101",
                             replays="certify:clock_101"))
    return checks


# -- sample -------------------------------------------------------------------


def _sample_inputs(rng):
    """(label, rep, prime, sampling seed, smooth-point finder) per sampled check.

    How many slices a quadric needs before it meets 20 smooth points is a
    matter of chance (about +-22% per check), and at GF(10007) one slice
    scans 10007 values.  The mix is laid out so that the median falls among
    five GF(1009) clock cubics, whose three roots per slice make their cost
    steady, and the 75th percentile among the seven GF(10007) items, which
    keep fixed pencils and sampling seeds.  The seed varies everything else.
    """
    qq = cr.rationals()
    block, gamma_qq = block_quadric(qq), gamma(qq, [1, -1, 1, -1])
    gf101, gf1009, gf10007 = (cr.prime_field(p) for p in (101, 1009, 10007))
    items = []

    def add(label, rep, p, seed, finder=None):
        items.append((label, rep, p, seed, finder))

    def add_clock(label, p, roots, seed):
        add(label, clock(cr.prime_field(p), roots), p, seed,
            lambda rng: [(-roots[0]) % p, 1])

    base = rng.randrange(10 ** 6)
    add_clock("clock3_101", 101, rng.sample(range(101), 3), base)
    add("gamma4_101", seeded_gamma(gf101, 4, rng), 101, base)
    add("gamma6_101", seeded_gamma(gf101, 6, rng), 101, base)
    add("block_qq_mod101", block, 101, base)
    add("gamma_qq_mod101", gamma_qq, 101, base)
    for k in range(5):
        add_clock(f"clock3_1009_{k}", 1009, rng.sample(range(1009), 3), base + k)
    add("gamma4_1009", seeded_gamma(gf1009, 4, rng), 1009, base)
    add("block_qq_mod1009", block, 1009, base)
    add("gamma_qq_mod1009", gamma_qq, 1009, base)
    fixed = random.Random("gf10007")
    for k in range(3):
        add_clock(f"clock3_10007_{k}", 10007, fixed.sample(range(10007), 3), k)
    for k in range(2):
        add(f"gamma_qq_mod10007_{k}", gamma_qq, 10007, k)
    add("gamma4_10007", seeded_gamma(gf10007, 4, fixed), 10007, 0)
    add("block_qq_mod10007", block, 10007, 0)
    return items


def verify_sample(payload, rep, p, find_smooth, rng, floor):
    """A corank summary against coranks the oracle recomputes itself."""
    r = rep.size // rep.d
    assert payload["prime"] == p and payload["expected_corank"] == r
    assert payload["off_points"] == payload["off_corank_zero"] == SAMPLE_TARGET
    assert payload["on_smooth"] >= floor() and not payload["violations"]
    assert payload["on_points"] == payload["on_smooth"] + payload["on_singular"]
    mats = [[[orc.reduce(x, p) for x in row] for row in m]
            for m in orc.scalar_pencil(rep)]
    n = rep.ring.fiber_count

    def matrix_at(point):
        return [[sum(v * m[i][j] for v, m in zip(point, mats)) % p
                 for j in range(rep.size)] for i in range(rep.size)]

    while True:  # corank 0 at a point off f = 0
        point = [rng.randrange(p) for _ in range(n)]
        if orc.poly_at(rep.f, point, p):
            break
    assert orc.rank(matrix_at(point), p) == rep.size, "corank off f = 0"
    point = find_smooth(rng) if find_smooth else orc.quadric_point(rep.f, p, rng)
    assert orc.poly_at(rep.f, point, p) == 0 and any(
        orc.gradient_at(rep.f, point, p)), "oracle point is not smooth"
    assert rep.size - orc.rank(matrix_at(point), p) == r, "corank at a smooth point"


def verify_nonreduced(payload, rep, p, rng):
    """(y0 + y1)^2: its gradient vanishes on all of V(f), so nothing is smooth."""
    assert payload["on_smooth"] == 0
    assert payload["on_points"] == payload["on_singular"] > 0
    assert payload["off_points"] == payload["off_corank_zero"] == SAMPLE_TARGET
    assert not payload["violations"]
    for _ in range(3):
        y1 = rng.randrange(1, p)
        assert not any(orc.gradient_at(rep.f, [(-y1) % p, y1], p))


def _sample(seed, out_dir):
    rng = random.Random(seed)
    items = _sample_inputs(rng)
    nonreduced = clock(cr.rationals(), [1, 1])
    for label, rep, _, _, _ in items:
        cr.save_pencil(rep, os.path.join(out_dir, f"{label}.pencil"))
    cr.save_pencil(nonreduced, os.path.join(out_dir, "nonreduced_qq.pencil"))
    checks = []
    for label, rep, p, sample_seed, finder in items:
        oracle_rng = random.Random(f"{seed}:{label}")
        checks.append(Check(
            "sample:" + label,
            lambda rep=rep, p=p, s=sample_seed: cr.corank_sampling(
                rep, prime=p, seed=s),
            lambda out, rep=rep, p=p, finder=finder, rng=oracle_rng,
                   floor=smooth_witness_floor(rep.f, p):
                verify_sample(out.to_payload(), rep, p, finder, rng, floor)))
    nonred_rng = random.Random(f"{seed}:nonreduced")
    checks.append(Check(
        "sample:nonreduced_qq",
        lambda: cr.corank_sampling(nonreduced, prime=101, seed=seed,
                                   max_tries=NONREDUCED_TRIES),
        lambda out: verify_nonreduced(out.to_payload(), nonreduced, 101,
                                      nonred_rng)))

    label, rep, p, _, finder = items[0]
    report_rng = random.Random(f"{seed}:report")
    report_floor = smooth_witness_floor(rep.f, p)

    def report_call():
        summary = cr.corank_sampling(rep, prime=p, seed=seed)
        report = Report(subject=f"corank-sampling {label}", seed=seed,
                        budgets={"on_target": SAMPLE_TARGET,
                                 "off_target": SAMPLE_TARGET})
        report.add("corank-sampling", "pass", summary.to_payload())
        return report.finalize().to_json()

    def report_verify(text):
        assert "timing" not in text
        payload = json.loads(text)["checks"][0]["witness"]
        verify_sample(payload, rep, p, finder, report_rng, report_floor)

    checks.append(Check("sample:report", report_call, report_verify))
    checks.append(Check("replay:sample:report", report_call, report_verify,
                        replays="sample:report"))
    return checks


# -- structure ----------------------------------------------------------------


def random_invertible(p, size, rng):
    while True:
        theta = [[rng.randrange(p) for _ in range(size)] for _ in range(size)]
        if orc.det(theta, p):
            return theta


def verify_irreducible(result, rep):
    assert result.verdict == "irreducible", result.verdict
    assert result.algebra_dim == rep.size ** 2


def verify_reducible(result, rep):
    """A proper subspace that every A_i maps into itself."""
    p = rep.ring.field.p
    assert result.verdict == "reducible", result.verdict
    basis = [[x % p for x in v] for v in result.subspace]
    k = orc.rank(basis, p)
    assert 0 < k < rep.size
    for m in orc.scalar_pencil(rep):
        images = [[sum(m[i][j] * v[j] for j in range(rep.size)) % p
                   for i in range(rep.size)] for v in basis]
        assert orc.rank(basis + images, p) == k, "subspace is not invariant"


def verify_equivalent(result, rep1, rep2):
    """theta*A1_i = A2_i*theta for all i, and det theta != 0."""
    p = rep1.ring.field.p
    assert result.verdict == "equivalent", result.verdict
    theta = [[orc.poly_at(e, [0] * rep1.ring.nvars, p) for e in row]
             for row in result.theta]
    assert orc.det(theta, p), "intertwiner is singular"
    for a1, a2 in zip(orc.scalar_pencil(rep1), orc.scalar_pencil(rep2)):
        assert orc.mat_mul(theta, a1, p) == orc.mat_mul(a2, theta, p), \
            "theta does not intertwine"


def _structure(seed, out_dir):
    rng = random.Random(seed)
    gf101 = cr.prime_field(101)
    checks = []
    reps = {}
    for nvars in (4, 6):
        rep = seeded_gamma(gf101, nvars, rng)
        t = rep.size
        conj = cr.conjugate(rep, random_invertible(101, t, rng))
        reps[t] = rep, conj
        summed = cr.direct_sum(rep, conj)
        twist2, twist3 = cr.twist_by_free(rep, 2), cr.twist_by_free(rep, 3)
        for label, r in (("rep", rep), ("conj", conj), ("sum", summed)):
            cr.save_pencil(r, os.path.join(out_dir, f"gamma_t{t}_{label}.pencil"))
        checks += [
            Check(f"irreducible:t{t}", lambda r=rep: cr.irreducibility_check(r),
                  lambda out, r=rep: verify_irreducible(out, r)),
            Check(f"irreducible:t{t}_conj",
                  lambda r=conj: cr.irreducibility_check(r),
                  lambda out, r=conj: verify_irreducible(out, r)),
            Check(f"reducible:t{t}_sum",
                  lambda r=summed: cr.irreducibility_check(r),
                  lambda out, r=summed: verify_reducible(out, r)),
            Check(f"equiv:t{t}_conj",
                  lambda a=rep, b=conj: cr.equivalence_test(a, b, seed=seed),
                  lambda out, a=rep, b=conj: verify_equivalent(out, a, b)),
            Check(f"equiv:t{t}_sum_twist",
                  lambda a=summed, b=twist2: cr.equivalence_test(a, b, seed=seed),
                  lambda out, a=summed, b=twist2: verify_equivalent(out, a, b)),
        ]
        # End of an absolutely irreducible rep is the scalars, so
        # Hom(rep (x) k^m1, rep (x) k^m2) has dimension m1*m2.
        for m1, m2, a, b in ((1, 1, rep, conj), (1, 2, rep, summed),
                             (2, 3, twist2, twist3)):
            checks.append(Check(
                f"hom:t{t}_{m1}x{m2}",
                lambda a=a, b=b: cr.hom_space_dim(a, b),
                lambda out, want=m1 * m2: _assert_equal(out, want)))

    rep, conj = reps[4]
    argv = ["equiv", os.path.join(out_dir, "gamma_t4_rep.pencil"),
            os.path.join(out_dir, "gamma_t4_conj.pencil"), "--json",
            "--seed", str(seed)]

    def equiv_cli_verify(result):
        text = cli_text(result)
        assert "timing" not in text
        doc = json.loads(text)
        assert doc["verdict"] == "pass" and doc["seed"] == seed
        witness = doc["checks"][0]["witness"]
        theta = [[orc.reduce(int(x), 101) for x in row]
                 for row in witness["theta"]]
        assert orc.det(theta, 101)
        for a1, a2 in zip(orc.scalar_pencil(rep), orc.scalar_pencil(conj)):
            assert orc.mat_mul(theta, a1, 101) == orc.mat_mul(a2, theta, 101)

    irreducible_argv = ["irreducible", argv[2], "--json", "--seed", str(seed)]

    def irreducible_cli_verify(result):
        doc = json.loads(cli_text(result))
        assert doc["verdict"] == "pass"
        assert doc["checks"][0]["witness"]["algebra_dim"] == conj.size ** 2

    checks.append(Check("irreducible:cli_t4_conj",
                        lambda: run_cli(irreducible_argv), irreducible_cli_verify))
    checks.append(Check("equiv:cli_t4", lambda: run_cli(argv), equiv_cli_verify))
    checks.append(Check("replay:equiv:cli_t4", lambda: run_cli(argv),
                        equiv_cli_verify, replays="equiv:cli_t4"))
    return checks


def _assert_equal(got, want):
    assert got == want, f"{got} != {want}"


# -- search -------------------------------------------------------------------

SEARCH_BUDGETS = {3: 6000, 5: 6000, 7: 6000}


def _search_forms(rng):
    """Seeded nondegenerate binary quadrics: y0^2 - c*y1^2 and split ones."""
    forms = []
    for p in SEARCH_BUDGETS:
        ring = cr.PolyRing(cr.prime_field(p), 0, 2)
        c = rng.randrange(1, p)
        forms.append((p, cr.parse_poly(f"y0^2 - {c}*y1^2", ring)))
        roots = rng.sample(range(p), 2)
        forms.append((p, cr.SplitBinaryForm.from_roots(ring, roots).f))
    return forms


def must_find(f, p, budget):
    """Whether a search of this budget must return a hit (a lazy value).

    The oracle enumerates the pairs (A, B) of 2x2 matrices with
    (y0*A + y1*B)^2 = f*I, so a uniform candidate survives with chance
    pairs / p^8.  Where the expected survivors reach 20 (GF(3): about
    22 in 6000), finding none has chance below e^-20.  Over GF(5) and GF(7)
    about 1.8 and 0.35 are expected and an empty result is common.
    """
    return functools.cache(
        lambda: budget * orc.binary_quadric_reps(f, p) / p ** 8 >= 20)


def verify_search(hits, f, d, t, p, budget, needs_hit):
    assert sum(h.count for h in hits) <= budget
    assert hits or not needs_hit(), "no representation found"
    for hit in hits:
        rep = hit.rep
        assert rep.f == f and rep.d == d and rep.size == t
        mats = [[[x % p for x in row] for row in m]
                for m in orc.scalar_pencil(rep)]
        assert orc.relation_holds_everywhere(mats, f, d, p), "hit fails M^d = f*I"


def _search(seed, out_dir):
    rng = random.Random(seed)
    checks = []
    specs = []
    needs_hit = []
    for k, (p, f) in enumerate(_search_forms(rng)):
        ring = f.ring
        budget, search_seed = SEARCH_BUDGETS[p], seed * 100 + k
        specs.append({"field": f"GF({p})", "f": str(f), "d": 2, "t": 2,
                      "budget": budget, "seed": search_seed})
        needs_hit.append(must_find(f, p, budget))
        checks.append(Check(
            f"search:gf{p}_{k}",
            lambda ring=ring, f=f, b=budget, s=search_seed: cr.random_search(
                ring, f, 2, 2, seed=s, budget=b),
            lambda out, f=f, p=p, b=budget, n=needs_hit[-1]: verify_search(
                out, f, 2, 2, p, b, n)))
    with open(os.path.join(out_dir, "forms.json"), "w", encoding="utf-8") as fh:
        json.dump(specs, fh, indent=2, sort_keys=True)

    spec = specs[0]
    argv = ["search", "--field", spec["field"], "--fiber-vars", "2",
            "--f", spec["f"], "--d", "2", "--t", "2", "--budget",
            str(spec["budget"]), "--seed", str(spec["seed"]), "--json"]

    def search_cli_verify(result):
        # exit code 1 and verdict fail: no representation found
        text = cli_text(result, codes=(0,) if needs_hit[0]() else (0, 1))
        assert "timing" not in text
        doc = json.loads(text)
        assert doc["seed"] == spec["seed"]
        assert doc["budgets"]["budget"] == spec["budget"]
        counts = [c["witness"]["count"] for c in doc["checks"]
                  if c["name"].startswith("hit")]
        assert sum(counts) <= spec["budget"]
        assert counts or not needs_hit[0](), "no representation found"
        assert doc["verdict"] == ("pass" if counts else "fail")

    checks.append(Check("search:cli", lambda: run_cli(argv), search_cli_verify))
    checks.append(Check("replay:search:cli", lambda: run_cli(argv),
                        search_cli_verify, replays="search:cli"))
    return checks


_SETUP = {"certify": _certify, "sample": _sample, "structure": _structure,
          "search": _search}


def setup(name, seed, out_dir):
    """Build, verify and write a workload's inputs; return one pass of checks."""
    os.makedirs(out_dir, exist_ok=True)
    return _SETUP[name](seed, out_dir)
