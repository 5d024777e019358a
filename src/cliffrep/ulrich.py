"""Geometric certification of pencil cokernels.

The cokernel of a verified pencil presents a module that should behave, on
the hypersurface f = 0, like a bundle whose fibers are as large as
possible: linear resolution Hilbert function, sections count t = d*r,
support exactly on f = 0, constant corank r at smooth points, and Fitting
exponent r.  This module computes each of those shadows exactly, plus the
closed-form projective-space cohomology tables that make degree one the only
case where the trivial bundle itself qualifies.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from math import comb
from operator import mul

from . import linalg
from .clifford import (CliffordRep, det_factorization, probe_points,
                       specialize_rep, verify_relation)
from .errors import (BadPrime, DivisionFails, InputError, NotHomogeneous,
                     UnsupportedBase)
from .fields import gf_roots, prime_field
from .pencil import LinearPencil, assemble, extract, pencil_at
from .poly import Poly, PolyRing
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
    return [t * comb(n + e, n) - (t * comb(n + e - 1, n) if e else 0)
            for e in range(max_degree + 1)]


# -- sampling --------------------------------------------------------------------


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

    @property
    def on_ok(self) -> bool:
        return self.on_smooth > 0 and not self.violations

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


def reduce_rep_mod_prime(rep: CliffordRep, prime: int) -> CliffordRep:
    """Reduce a rational rep mod p, rejecting primes that kill det(M)."""
    source = rep.ring
    if source.field.kind != "QQ":
        raise InputError("only rational reps are reduced modulo a prime")
    field = prime_field(prime)
    target = PolyRing(field, source.base_count, source.fiber_count)

    def reduce(c):
        if c.denominator % prime == 0:
            raise BadPrime(f"{prime} divides a coefficient denominator")
        return field.of(c)

    coeffs = {alpha: [[reduce(x) for x in row] for row in c]
              for alpha, c in rep.pencil.coefficients.items()}
    f = Poly(target, {exp: v for exp, c in rep.f.terms.items() if (v := reduce(c))})
    reduced = CliffordRep(LinearPencil.from_coefficients(target, rep.size, coeffs),
                          f, rep.d, rep.notes)
    # M^d = f*I survives reduction, so det(M)^d = f^t: on a verified rep
    # det(M) vanishes mod p exactly when f does
    if (reduced.f.is_zero() if rep.verified
            else not _det_is_nonzero(reduced.pencil)):
        raise BadPrime(f"det(M) vanishes mod {prime}; choose another prime")
    if rep.verified:
        verify_relation(reduced)
    return reduced


def _term_at(exp: tuple, c: int, values: list, p: int) -> int:
    for v, e in zip(values, exp):
        if e:
            c = c * pow(v, e, p) % p
    return c


def _at(terms: list, values: list, p: int) -> int:
    """A polynomial given by its (exponents, coefficient) terms, at a point mod p."""
    return sum(_term_at(exp, c, values, p) for exp, c in terms) % p


def corank_sampling(rep: CliffordRep, prime: int = 101, on_target: int = 20,
                    off_target: int = 20, seed: int = 0,
                    max_tries: int = 20000) -> CorankSummary:
    """Sample fiber points: corank must be 0 off f = 0 and r at smooth points.

    On-hypersurface points come from univariate slices: fix all but one
    coordinate at random and visit the roots of f in the free one, in
    ascending order, found by ``gf_roots`` on the dense slice polynomial.
    Points where the gradient of f vanishes are recorded as singular and
    exempt from the corank assertion.  With one fiber variable V(f) is
    empty, which raises at once the InputError an exhausted budget raises.
    """
    if rep.ring.base_count:
        raise UnsupportedBase("specialize the base before sampling coranks")
    if not rep.verified:
        raise InputError("verify the relation before sampling coranks")
    if rep.ring.field.kind == "QQ":
        rep = reduce_rep_mod_prime(rep, prime)
    if rep.ring.fiber_count == 1 and not rep.f.is_zero():
        # f = c*y0^d with c != 0 vanishes nowhere on P^0: no slice can hit V(f)
        raise InputError("found no points on the hypersurface within the budget")
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

    def corank_at(values: list) -> int:
        scalar = [[sum(map(mul, values, entry)) % p for entry in row]
                  for row in stacks]
        return t - linalg.rank(field, scalar)

    tries = 0
    while summary.off_points < off_target and tries < max_tries:
        tries += 1
        point = [rng.randrange(p) for _ in range(n)]
        if _at(f_terms, point, p) == 0:
            continue
        summary.off_points += 1
        got = corank_at(point)
        if got == 0:
            summary.off_corank_zero += 1
        else:
            summary.violations.append((tuple(point), got, 0))
    while summary.on_smooth < on_target and tries < max_tries:
        tries += 1
        free = rng.randrange(n)
        # a 1 in the free slot makes each term's value its slice coefficient
        point = [1 if i == free else rng.randrange(p) for i in range(n)]
        slice_poly = [0] * (rep.d + 1)
        for exp, c in f_terms:
            slice_poly[exp[free]] += _term_at(exp, c, point, p)
        for x in gf_roots(slice_poly, p):
            point[free] = x
            if not any(point):
                continue  # the zero vector is no projective point
            summary.on_points += 1
            smooth = any(_at(g, point, p) for g in gradient)
            got = corank_at(point)
            summary.corank_histogram[got] = summary.corank_histogram.get(got, 0) + 1
            if smooth:
                summary.on_smooth += 1
                if got != r:
                    summary.violations.append((tuple(point), got, r))
            else:
                summary.on_singular += 1
            if summary.on_smooth >= on_target:
                break
    if summary.on_points == 0:
        raise InputError("found no points on the hypersurface within the budget")
    return summary


def fitting_exponent(rep: CliffordRep) -> int:
    """The exponent r with det(M) = unit * f^r; always equals t/d.

    This is the computable shadow of the zeroth Fitting ideal being (f^r):
    a cokernel free of rank l on f = 0 would force (f^l) = (f^r), hence
    l = r.
    """
    result = det_factorization(rep)
    expected = rep.size // rep.d
    if result.exponent != expected:
        raise DivisionFails(
            f"Fitting exponent {result.exponent} != t/d = {expected}")
    return result.exponent


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
    on_target: int = 20
    off_target: int = 20
    min_smooth_witnesses: int = 20
    seed: int = 0
    base_points: list | None = None  # for base-parametrized reps


@dataclass
class UlrichCertificate:
    size: int
    degree: int
    clifford_index: int | None
    report: Report
    notes: tuple = ()

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
                  label: str = ""):
    """Hilbert, sections, corank and smoothness checks for a base-free rep."""
    prefix = f"{label}:" if label else ""
    # f != 0 (checked by verify_relation) and det(M)^d = f^t prove
    # det M != 0, so the Hilbert function is that of the linear resolution
    hilbert = expected_hilbert(rep.size, rep.ring.fiber_count - 1, config.max_degree)
    report.add(prefix + "hilbert-function", PASS,
               {"computed": hilbert, "expected": hilbert})
    h0_want = rep.d * rep.clifford_index
    report.add(prefix + "global-sections", PASS if hilbert[0] == h0_want else FAIL,
               {"h0": hilbert[0], "dr": h0_want})
    try:
        summary = corank_sampling(rep, config.sample_prime, config.on_target,
                                  config.off_target, config.seed)
    except (BadPrime, InputError) as exc:
        report.add(prefix + "corank-sampling", FAIL, {"error": str(exc)})
        report.add(prefix + "smoothness-sampling", FAIL, {"error": str(exc)})
        return
    corank_ok = summary.off_ok and not summary.violations
    smooth_ok = summary.on_smooth >= config.min_smooth_witnesses
    if not smooth_ok:
        report.add(prefix + "corank-sampling",
                   INCONCLUSIVE if corank_ok else FAIL, summary.to_payload())
    else:
        report.add(prefix + "corank-sampling",
                   PASS if (corank_ok and summary.on_ok) else FAIL,
                   summary.to_payload())
    report.add(prefix + "smoothness-sampling", PASS if smooth_ok else FAIL,
               {"on_smooth": summary.on_smooth, "on_singular": summary.on_singular,
                "required": config.min_smooth_witnesses, "sampled": True})


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
                             "on_target": config.on_target,
                             "off_target": config.off_target,
                             "sample_prime": config.sample_prime})
    try:
        relation = verify_relation(rep)
    except NotHomogeneous as exc:
        report.add("clifford-relation", FAIL, {"error": str(exc)})
        return UlrichCertificate(rep.size, rep.d, None, report.finalize(), rep.notes)
    if not relation.passed:
        payload = {"witness": relation.describe()}
        if _mf_only_probe(rep):
            payload["mf_only"] = True
            payload["note"] = ("matrix is one half of a matrix factorization "
                               "of f but not a Clifford representation; "
                               "lift it with block_from_mf")
        report.add("clifford-relation", FAIL, payload)
        return UlrichCertificate(rep.size, rep.d, None, report.finalize(), rep.notes)
    report.add("clifford-relation", PASS,
               {"t": rep.size, "d": rep.d, "r": rep.clifford_index})
    try:
        factorization = det_factorization(rep)
        report.add("determinant-factorization", PASS,
                   {"unit": str(factorization.unit),
                    "exponent": factorization.exponent})
    except DivisionFails as exc:
        report.add("determinant-factorization", FAIL, {"error": str(exc)})
    if rep.ring.base_count == 0:
        _fiber_checks(rep, config, report)
    elif config.base_points:
        for k, point in enumerate(config.base_points):
            fiber = specialize_rep(rep, point)
            cert = verify_relation(fiber)
            label = "base" + str(k)
            report.add(f"{label}:relation", PASS if cert.passed else FAIL,
                       {"point": {k2: str(v) for k2, v in point.items()}})
            if cert.passed:
                _fiber_checks(fiber, config, report, label)
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
    return UlrichCertificate(rep.size, rep.d, rep.clifford_index, report, rep.notes)
