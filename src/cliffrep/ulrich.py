"""Geometric certification of pencil cokernels.

The cokernel of a verified pencil presents a module that should behave, on
the hypersurface f = 0, like a bundle whose fibers are as large as
possible: linear resolution Hilbert function, sections count t = d*r,
support exactly on f = 0, constant corank r at smooth points, and Fitting
exponent r.  M^d = f*I proves them all but the coranks at singular points,
which ``corank_sampling`` ranks; closed-form projective-space cohomology
tables make degree one the only case where the trivial bundle qualifies.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from math import comb
from operator import mul

from . import linalg
from .clifford import (CliffordRep, det_factorization, probe_points,
                       reduce_rep_mod_prime, specialize_rep, verify_relation)
from .errors import (BadPrime, DivisionFails, InputError, NotHomogeneous,
                     SampleBudgetSpent, UnsupportedBase)
from .fields import gf_roots
from .pencil import LinearPencil, assemble, extract, pencil_at
from .polymat import PolyMatrix, mat_shape, poly_matrix_det
from .reports import FAIL, INCONCLUSIVE, PASS, SKIPPED, Report


# -- Hilbert functions -----------------------------------------------------------


@dataclass(frozen=True)
class GradedCokernel:
    matrix: PolyMatrix
    hilbert: list[int]


def _det_is_nonzero(pencil: LinearPencil) -> bool:
    """Whether det M != 0, proved by one full-rank value M(q) where possible.

    A full-rank evaluation is an exact one-sided proof.  Only when every
    probe point is singular (e.g. a small field where det M vanishes at
    every point) does the symbolic determinant decide.
    """
    field = pencil.ring.field
    for point in probe_points(pencil.ring):
        if linalg.rank(field, pencil_at(pencil, point)) == pencil.size:
            return True
    return not poly_matrix_det(assemble(pencil)).is_zero()


def hilbert_function(matrix: PolyMatrix, max_degree: int = 6) -> GradedCokernel:
    """Exact Hilbert function of coker(M) in degrees 0..max_degree.

    M is a square matrix of linear forms over the domain S = k[y0..yn] with
    det(M) != 0, so M is injective and 0 -> S(-1)^t -> S^t -> coker(M) -> 0
    is exact: HF(coker, e) is the difference of the two free modules'
    Hilbert functions, which ``expected_hilbert`` gives.
    """
    rows, cols = mat_shape(matrix)
    if rows != cols:
        raise InputError("cokernel presentations must be square")
    ring = matrix[0][0].ring
    if ring.base_count:
        raise UnsupportedBase("Hilbert functions need a plain coefficient field")
    pencil = extract(matrix)  # every entry linear in the fiber variables
    if not _det_is_nonzero(pencil):
        raise InputError("det(M) = 0: the resolution is not exact and the "
                         "cokernel is not of the expected shape")
    return GradedCokernel(matrix, expected_hilbert(rows, ring.fiber_count - 1,
                                                   max_degree))


def expected_hilbert(t: int, n: int, max_degree: int = 6) -> list[int]:
    """t*C(n+e, n) - t*C(n+e-1, n) for e = 0..max_degree; entry 0 is t = d*r.

    These are the ranks in degree e of S^t and S(-1)^t over S = k[y0..yn];
    for n >= 1 the difference is t*C(e+n-1, n-1).
    """
    if max_degree < 0:
        raise InputError(f"degree cap must be >= 0, got {max_degree}")
    return [t * comb(n + e, n) - (t * comb(n + e - 1, n) if e else 0)
            for e in range(max_degree + 1)]


# -- sampling --------------------------------------------------------------------

# Off- and on-hypersurface points a certificate samples, and the fewest
# smooth witnesses its smoothness check accepts.
_SAMPLE_TARGET = 20


@dataclass
class CorankSummary:
    prime: int
    seed: int
    expected_corank: int
    off_points: int = 0
    off_corank_zero: int = 0
    on_points: int = 0
    on_smooth: int = 0
    on_singular: int = 0
    corank_histogram: dict = dc_field(default_factory=dict)
    violations: list = dc_field(default_factory=list)

    @property
    def off_ok(self) -> bool:
        return self.off_points > 0 and self.off_corank_zero == self.off_points

    def to_payload(self) -> dict:
        return {
            "prime": self.prime, "seed": self.seed,
            "expected_corank": self.expected_corank,
            "off_points": self.off_points,
            "off_corank_zero": self.off_corank_zero,
            "on_points": self.on_points, "on_smooth": self.on_smooth,
            "on_singular": self.on_singular,
            "corank_histogram": {str(k): v for k, v in
                                 sorted(self.corank_histogram.items())},
            "violations": [[list(pt), got, want]
                           for pt, got, want in self.violations],
        }


def _term_at(exp: tuple, c: int, values: list, p: int) -> int:
    for v, e in zip(values, exp):
        if e:
            c = c * pow(v, e, p) % p
    return c


def _at(terms: list, values: list, p: int) -> int:
    """A polynomial given by its (exponents, coefficient) terms, at a point mod p."""
    return sum(_term_at(exp, c, values, p) for exp, c in terms) % p


def corank_sampling(rep: CliffordRep, prime: int = 101, on_target: int = _SAMPLE_TARGET,
                    off_target: int = _SAMPLE_TARGET, seed: int = 0,
                    max_tries: int = 20000) -> CorankSummary:
    """Sample fiber points off and on f = 0; rank M only at singular points.

    M^d = f*I proves every other corank, over any field, p | d included (a
    QQ rep is sampled through its verified reduction mod p).  Off f = 0,
    M(q)^d = f(q)*I is invertible: corank 0.  On f = 0, M(q) is nilpotent
    with Jordan blocks of size <= d, so its corank is >= t/d = r.  At a
    smooth point, df/dy_i(q) != 0, f(q + s*e_i) has a simple zero at s = 0,
    so det M(q + s*e_i) = c*f(q + s*e_i)^r (c != 0, see
    ``det_factorization``) vanishes there to order exactly r; a kernel of
    dimension k makes s^k divide det(M(q) + s*M(e_i)), so the corank is r
    and ``violations`` stays empty.  A singular point, where the gradient
    of f vanishes, has only r <= corank <= t and is ranked.

    On-hypersurface points come from univariate slices: fix all but one
    coordinate at random and visit the roots of f in the free one, in
    ascending order, found by ``gf_roots`` on the dense slice polynomial.
    For a binary form the slice with fixed coordinate c != 0 is
    c^d * f(x/c, 1), so its roots are c times those of f with the fixed
    coordinate 1, found once per free slot; a slice with c = 0 is solved
    as it stands.  With one fiber variable V(f) is empty, which raises at
    once the SampleBudgetSpent an exhausted budget raises.  A negative
    target or budget is an InputError.
    """
    for name, value in (("on_target", on_target), ("off_target", off_target),
                        ("max_tries", max_tries)):
        if value < 0:
            raise InputError(f"{name} must be >= 0, got {value}")
    if rep.ring.base_count:
        raise UnsupportedBase("specialize the base before sampling coranks")
    if not rep.verified:
        raise InputError("verify the relation before sampling coranks")
    if rep.ring.field.kind == "QQ":
        rep = reduce_rep_mod_prime(rep, prime)
    if rep.ring.fiber_count == 1 and not rep.f.is_zero():
        # f = c*y0^d with c != 0 vanishes nowhere on P^0: no slice can hit V(f)
        raise SampleBudgetSpent("found no points on the hypersurface within the budget")
    field = rep.ring.field
    p = field.p
    n = rep.ring.fiber_count
    r = rep.clifford_index
    t = rep.size
    # entry (i, j) of every A_k side by side, so M(point) = sum_k point_k A_k
    stacks = [list(zip(*rows)) for rows in zip(*rep.scalar_matrices())]
    f_terms = list(rep.f.terms.items())
    gradient = [[(exp[:i] + (exp[i] - 1,) + exp[i + 1:], c * exp[i] % p)
                 for exp, c in f_terms if exp[i]] for i in range(n)]
    rng = random.Random(seed)
    summary = CorankSummary(prime=p, seed=seed, expected_corank=r)

    def slice_roots(free: int, point: list) -> list[int] | range:
        # a 1 in the free slot makes each term's value its slice coefficient
        slice_poly = [0] * (rep.d + 1)
        for exp, c in f_terms:
            slice_poly[exp[free]] += _term_at(exp, c, point, p)
        return gf_roots(slice_poly, p)

    # a binary form's slice with fixed coordinate c != 0 is c^d * f(x/c, 1):
    # its roots are c times the roots at c = 1, found once per free slot
    unit_roots = [slice_roots(i, [1, 1]) for i in range(2)] if n == 2 else None

    tries = 0
    while summary.off_points < off_target and tries < max_tries:
        tries += 1
        point = [rng.randrange(p) for _ in range(n)]
        if _at(f_terms, point, p):
            summary.off_points += 1
    summary.off_corank_zero = summary.off_points  # M(q) is invertible off V(f)
    while summary.on_smooth < on_target and tries < max_tries:
        tries += 1
        free = rng.randrange(n)
        point = [1 if i == free else rng.randrange(p) for i in range(n)]
        c = point[1 - free] if n == 2 else 0
        roots = (sorted(c * x % p for x in unit_roots[free]) if c
                 else slice_roots(free, point))
        for x in roots:
            point[free] = x
            if not any(point):
                continue  # the zero vector is no projective point
            summary.on_points += 1
            if any(_at(g, point, p) for g in gradient):
                summary.on_smooth += 1
                got = r
            else:
                summary.on_singular += 1
                got = t - linalg.rank(field, [[sum(map(mul, point, entry)) % p
                                               for entry in row] for row in stacks])
            summary.corank_histogram[got] = summary.corank_histogram.get(got, 0) + 1
            if summary.on_smooth >= on_target:
                break
    if summary.on_points == 0:
        raise SampleBudgetSpent("found no points on the hypersurface within the budget")
    return summary


def fitting_exponent(rep: CliffordRep) -> int:
    """The exponent r with det(M) = unit * f^r; ``det_factorization`` makes it t/d.

    This is the computable shadow of the zeroth Fitting ideal being (f^r):
    a cokernel free of rank l on f = 0 would force (f^l) = (f^r), hence
    l = r.
    """
    return det_factorization(rep).exponent


# -- closed-form cohomology -------------------------------------------------------


def pn_line_bundle_cohomology(n: int, twist: int) -> list[tuple[int, int]]:
    """h^i of the twist-l line bundle on projective n-space, all i.

    Nonzero only at i = 0 for l >= 0 and at i = n for l <= -n-1, with the
    binomial dimensions; identically zero in the band -n <= l <= -1.
    """
    if n < 1:
        raise InputError("projective space dimension must be >= 1")
    table = [(i, 0) for i in range(n + 1)]
    if twist >= 0:
        table[0] = (0, comb(n + twist, n))
    elif twist <= -n - 1:
        table[n] = (n, comb(-twist - 1, n))
    return table


def hypersurface_twist_cohomology(n: int, d: int, j: int) -> list[tuple[int, int]]:
    """h^i of the (-j)-twisted structure sheaf of a degree-d hypersurface in P^n.

    For 1 <= j <= n-1 the ambient twist -j is fully acyclic, so the standard
    restriction sequence identifies h^i on the hypersurface with h^(i+1) of
    the ambient twist -d-j.
    """
    if n < 2:
        raise InputError("need ambient dimension n >= 2")
    if d < 1:
        raise InputError("degree must be >= 1")
    if not 1 <= j <= n - 1:
        raise InputError(f"twist j={j} out of range 1..{n - 1}")
    ambient = dict(pn_line_bundle_cohomology(n, -d - j))
    return [(i, ambient[i + 1]) for i in range(n)]


def trivial_bundle_fiber_ulrich(n: int, d: int) -> bool:
    """Whether all twists -j, 1 <= j <= n-1, are cohomology-free (iff d = 1)."""
    return all(h == 0
               for j in range(1, n)
               for _, h in hypersurface_twist_cohomology(n, d, j))


# -- the aggregate certificate ---------------------------------------------------


@dataclass
class CertificateConfig:
    max_degree: int = 6
    sample_prime: int = 101
    seed: int = 0
    base_points: list | None = None  # for base-parametrized reps


@dataclass
class UlrichCertificate:
    size: int
    degree: int
    clifford_index: int | None
    report: Report

    @property
    def passed(self) -> bool:
        return self.report.verdict == PASS


def _mf_only_probe(rep: CliffordRep) -> bool:
    """Whether M is merely one half of a matrix factorization of f.

    Applies to t = d = 2.  M*adj(M) = adj(M)*M = det(M)*I over any
    commutative ring, so (M, adj(M)/c) is a matrix factorization of f
    exactly when det M = c*f for a nonzero constant c, which
    ``det_factorization`` decides even when M fails the Clifford relation.
    """
    if rep.d != 2 or rep.size != 2:
        return False
    try:
        det_factorization(rep, force=True)
    except DivisionFails:
        return False
    return True


def _fiber_checks(rep: CliffordRep, config: CertificateConfig, report: Report,
                  prefix: str = ""):
    """Hilbert, sections, corank and smoothness checks for a base-free rep."""
    # f != 0 (a verified rep's form is nonzero) and det(M)^d = f^t prove
    # det M != 0, so the Hilbert function is that of the linear resolution
    hilbert = expected_hilbert(rep.size, rep.ring.fiber_count - 1, config.max_degree)
    report.add(prefix + "hilbert-function", PASS,
               {"computed": hilbert, "expected": hilbert})
    # h^0 = HF(0) = t, and a verified rep has t = d*r
    report.add(prefix + "global-sections", PASS,
               {"h0": hilbert[0], "dr": rep.d * rep.clifford_index})
    try:
        summary = corank_sampling(rep, config.sample_prime, seed=config.seed)
    except (SampleBudgetSpent, BadPrime) as exc:
        report.add(prefix + "corank-sampling", FAIL, {"error": str(exc)})
        report.add(prefix + "smoothness-sampling", FAIL, {"error": str(exc)})
        return
    # a returned summary holds all its off points, and the relation proves
    # their coranks and the smooth ones: only too few smooth points leave it open
    smooth_ok = summary.on_smooth >= _SAMPLE_TARGET
    report.add(prefix + "corank-sampling", PASS if smooth_ok else INCONCLUSIVE,
               summary.to_payload())
    report.add(prefix + "smoothness-sampling", PASS if smooth_ok else FAIL,
               {"on_smooth": summary.on_smooth, "on_singular": summary.on_singular,
                "required": _SAMPLE_TARGET, "sampled": True})


def ulrich_certificate(rep: CliffordRep,
                       config: CertificateConfig | None = None) -> UlrichCertificate:
    """Run the full battery and aggregate pass/fail with witnesses.

    Sub-checks: symbolic relation, determinant factorization, Hilbert
    function against the linear-resolution values, sections count d*r,
    corank and smoothness sampling.  The twist-cohomology table for the
    rep's (n, d) is attached as reference data.
    """
    config = config or CertificateConfig()
    report = Report(subject=f"ulrich-certificate(t={rep.size}, d={rep.d})",
                    seed=config.seed,
                    budgets={"max_degree": config.max_degree,
                             "on_target": _SAMPLE_TARGET,
                             "off_target": _SAMPLE_TARGET,
                             "sample_prime": config.sample_prime})
    try:
        relation = verify_relation(rep)
    except NotHomogeneous as exc:
        report.add("clifford-relation", FAIL, {"error": str(exc)})
        return UlrichCertificate(rep.size, rep.d, None, report.finalize())
    if not relation.passed:
        payload = {"witness": relation.describe()}
        if _mf_only_probe(rep):
            payload["mf_only"] = True
            payload["note"] = ("matrix is one half of a matrix factorization "
                               "of f but not a Clifford representation; "
                               "lift it with block_from_mf")
        report.add("clifford-relation", FAIL, payload)
        return UlrichCertificate(rep.size, rep.d, None, report.finalize())
    report.add("clifford-relation", PASS,
               {"t": rep.size, "d": rep.d, "r": rep.clifford_index})
    # the relation proves det M = unit * f^r, so this cannot fail
    factorization = det_factorization(rep)
    report.add("determinant-factorization", PASS,
               {"unit": str(factorization.unit), "exponent": factorization.exponent})
    if rep.ring.base_count == 0:
        _fiber_checks(rep, config, report)
    elif config.base_points:
        for k, point in enumerate(config.base_points):
            fiber = specialize_rep(rep, point)
            prefix = f"base{k}:"
            payload = {"point": {k2: str(v) for k2, v in point.items()}}
            if fiber.verified:
                report.add(prefix + "relation", PASS, payload)
                _fiber_checks(fiber, config, report, prefix)
            else:
                payload["error"] = f"the form f = {rep.f} vanishes at this base point"
                report.add(prefix + "relation", FAIL, payload)
    else:
        report.add("fiber-checks", SKIPPED,
                   {"reason": "base-parametrized rep; pass base_points to sample fibers"})
    n = rep.ring.fiber_count - 1
    if n >= 2:
        tables = {f"j={j}": dict(hypersurface_twist_cohomology(n, rep.d, j))
                  for j in range(1, n)}
        report.add("twist-cohomology-reference", SKIPPED,
                   {"informational": True,
                    "trivial_bundle_fiber_ulrich": trivial_bundle_fiber_ulrich(n, rep.d),
                    "tables": {k: {str(i): h for i, h in v.items()}
                               for k, v in tables.items()}})
    for note in rep.notes:
        report.add("note", SKIPPED, {"note": note})
    report.finalize()
    return UlrichCertificate(rep.size, rep.d, rep.clifford_index, report)
