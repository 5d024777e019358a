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
from .clifford import CliffordRep, det_factorization, verify_relation, specialize_rep
from .errors import (BadPrime, DivisionFails, InputError, NotHomogeneous,
                     UnsupportedBase)
from .fields import prime_field
from .pencil import LinearPencil, assemble, coefficients, extract, mf_verify
from .poly import Poly, PolyRing, monomials
from .polymat import (PolyMatrix, adjugate, mat_evaluate, mat_shape,
                      poly_matrix_det)
from .reports import FAIL, INCONCLUSIVE, PASS, SKIPPED, Report


# -- Hilbert functions -----------------------------------------------------------


@dataclass(frozen=True)
class GradedCokernel:
    matrix: PolyMatrix
    hilbert: list[int]


# Any points give an exact answer; a constant seed keeps the work the same
# on every run, whatever seed the caller passes.
_DET_PROBE_SEED = 0
_DET_PROBES = 4


def _det_is_nonzero(matrix: PolyMatrix) -> bool:
    """Whether det M != 0, proved by one full-rank value M(p) where possible.

    A full-rank evaluation is an exact one-sided proof.  Only when every
    probe point is singular (e.g. a small field where det M vanishes at
    every point) does the symbolic determinant decide.
    """
    ring = matrix[0][0].ring
    field = ring.field
    rng = random.Random(_DET_PROBE_SEED)
    for _ in range(_DET_PROBES):
        point = {name: rng.randrange(field.p) if field.kind == "GF"
                 else rng.randint(-9, 9) for name in ring.names}
        values = [[x.constant() for x in row] for row in mat_evaluate(matrix, point)]
        if linalg.rank_field_matrix(field, values) == len(matrix):
            return True
    return not poly_matrix_det(matrix).is_zero()


def hilbert_function(matrix: PolyMatrix, max_degree: int = 6) -> GradedCokernel:
    """Exact Hilbert function of coker(M) in degrees 0..max_degree.

    HF(e) = t*C(n+e, n) - rank(M_e) where M_e multiplies degree-(e-1)
    column vectors into degree e.  Requires det(M) != 0, which makes the
    presentation injective and the resolution exact.
    """
    rows, cols = mat_shape(matrix)
    if rows != cols:
        raise InputError("cokernel presentations must be square")
    ring = matrix[0][0].ring
    if ring.base_count:
        raise UnsupportedBase("Hilbert functions need a plain coefficient field")
    # the nonzero entries x = C_alpha[a][b], with alpha the exponent of y_var
    entries = [(alpha.index(1), a, b, x)
               for alpha, c in coefficients(extract(matrix)).items()
               for a, line in enumerate(c) for b, x in enumerate(line) if x]
    if not _det_is_nonzero(matrix):
        raise InputError("det(M) = 0: the resolution is not exact and the "
                         "cokernel is not of the expected shape")
    field = ring.field
    t = rows
    nvars = ring.fiber_count
    values = []
    for e in range(max_degree + 1):
        source = monomials(nvars, e - 1)
        target = monomials(nvars, e)
        if not source:
            values.append(t * comb(nvars - 1 + e, nvars - 1))
            continue
        target_index = {mono: k for k, mono in enumerate(target)}
        sys_rows = len(target) * t
        sys_cols = len(source) * t
        system = [[field.zero] * sys_cols for _ in range(sys_rows)]
        for var, a, b, x in entries:
            for s, mono in enumerate(source):
                shifted = list(mono)
                shifted[var] += 1
                row = a * len(target) + target_index[tuple(shifted)]
                system[row][b * len(source) + s] = x
        rank = linalg.rank_field_matrix(field, system)
        values.append(t * comb(nvars - 1 + e, nvars - 1) - rank)
    return GradedCokernel(matrix, values)


def expected_hilbert(t: int, n: int, max_degree: int = 6) -> list[int]:
    """t * C(e+n-1, n-1) for e = 0..max_degree; entry 0 is t = d*r."""
    return [t * comb(e + n - 1, n - 1) for e in range(max_degree + 1)]


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

    def reduce_poly(p: Poly) -> Poly:
        terms = {}
        for exp, c in p.terms.items():
            if c.denominator % prime == 0:
                raise BadPrime(f"{prime} divides a coefficient denominator")
            value = field.of(c)
            if value:
                terms[exp] = value
        return Poly(target, terms)

    mats = [[[reduce_poly(entry) for entry in row] for row in m]
            for m in rep.pencil.matrices]
    reduced = CliffordRep(LinearPencil(target, mats), reduce_poly(rep.f),
                          rep.d, rep.notes)
    if not _det_is_nonzero(assemble(reduced.pencil)):
        raise BadPrime(f"det(M) vanishes mod {prime}; choose another prime")
    if rep.verified:
        verify_relation(reduced)
    return reduced


def corank_sampling(rep: CliffordRep, prime: int = 101, on_target: int = 20,
                    off_target: int = 20, seed: int = 0,
                    max_tries: int = 20000) -> CorankSummary:
    """Sample fiber points: corank must be 0 off f = 0 and r at smooth points.

    On-hypersurface points come from univariate slices: fix all but one
    coordinate at random and scan the free one for roots of f.  Points where
    the gradient of f vanishes are recorded as singular and exempt from the
    corank assertion.
    """
    if rep.ring.base_count:
        raise UnsupportedBase("specialize the base before sampling coranks")
    if not rep.verified:
        raise InputError("verify the relation before sampling coranks")
    if rep.ring.field.kind == "QQ":
        rep = reduce_rep_mod_prime(rep, prime)
    field = rep.ring.field
    p = field.p
    ring = rep.ring
    names = ring.names[:ring.fiber_count]
    r = rep.clifford_index
    t = rep.size
    # entry (i, j) of every A_k side by side, so M(point) = sum_k point_k A_k
    stacks = [list(zip(*rows)) for rows in zip(*rep.scalar_matrices())]
    gradient = [rep.f.derivative(name) for name in names]
    rng = random.Random(seed)
    summary = CorankSummary(prime=p, seed=seed, expected_corank=r)

    def corank_at(point: dict) -> int:
        values = [point[name] for name in names]
        scalar = [[sum(map(mul, values, entry)) % p for entry in row]
                  for row in stacks]
        return t - linalg.rank(field, scalar)

    tries = 0
    while summary.off_points < off_target and tries < max_tries:
        tries += 1
        point = {name: rng.randrange(p) for name in names}
        if rep.f.evaluate(point).constant() == 0:
            continue
        summary.off_points += 1
        got = corank_at(point)
        if got == 0:
            summary.off_corank_zero += 1
        else:
            summary.violations.append((tuple(point[n] for n in names), got, 0))
    while summary.on_smooth < on_target and tries < max_tries:
        tries += 1
        free = rng.randrange(len(names))
        fixed = {name: rng.randrange(p) for i, name in enumerate(names) if i != free}
        slice_poly = rep.f.evaluate(fixed)
        free_name = names[free]
        for x in range(p):
            if not slice_poly.evaluate({free_name: x}).is_zero():
                continue
            point = dict(fixed)
            point[free_name] = x
            if not any(point.values()):
                continue  # the zero vector is no projective point
            summary.on_points += 1
            smooth = any(not g.evaluate(point).constant() == 0 for g in gradient)
            got = corank_at(point)
            summary.corank_histogram[got] = summary.corank_histogram.get(got, 0) + 1
            if smooth:
                summary.on_smooth += 1
                if got != r:
                    summary.violations.append(
                        (tuple(point[n] for n in names), got, r))
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

    Applies to d = 2: if det(M) = c*f^(t/2) then (M, adj(M)/c') pairs up for
    2x2 M even when M itself fails the Clifford relation.
    """
    if rep.d != 2 or rep.size != 2:
        return False
    matrix = assemble(rep.pencil)
    det = poly_matrix_det(matrix)
    quotient = det.exact_div(rep.f)
    if quotient is None or quotient.is_zero() or not quotient.is_constant():
        return False
    inv_c = rep.ring.field.inv(quotient.constant())
    partner = [[entry.scale(inv_c) for entry in row] for row in adjugate(matrix)]
    return mf_verify(matrix, partner, rep.f).passed


def _fiber_checks(rep: CliffordRep, config: CertificateConfig, report: Report,
                  label: str = ""):
    """Hilbert, sections, corank and smoothness checks for a base-free rep."""
    prefix = f"{label}:" if label else ""
    t, n = rep.size, rep.ring.fiber_count - 1
    expected = expected_hilbert(t, n, config.max_degree)
    try:
        actual = hilbert_function(assemble(rep.pencil), config.max_degree).hilbert
        status = PASS if actual == expected else FAIL
        report.add(prefix + "hilbert-function", status,
                   {"computed": actual, "expected": expected})
    except InputError as exc:
        report.add(prefix + "hilbert-function", FAIL, {"error": str(exc)})
        actual = None
    h0_want = rep.d * rep.clifford_index
    if actual is not None:
        report.add(prefix + "global-sections", PASS if actual[0] == h0_want else FAIL,
                   {"h0": actual[0], "dr": h0_want})
    else:
        report.add(prefix + "global-sections", SKIPPED, {"reason": "no Hilbert data"})
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
