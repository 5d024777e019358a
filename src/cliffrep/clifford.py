"""Linear representations of generalized Clifford algebras.

A representation of the algebra attached to a degree-d form f is a pencil
(A_0..A_n) whose assembled matrix satisfies the symbolic identity
M(y)^d = f * I.  That polynomial identity is the normative check here: it
implies the scalar relation at every point of every extension ring, which
pointwise evaluation over a finite field cannot.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from . import linalg
from .errors import (DivisionFails, InputError, InternalInconsistency,
                     UnsupportedBase)
from .pencil import (LinearPencil, assemble, coefficients, power_coefficients,
                     specialize)
from .poly import Poly, PolyRing, monomials
from .polymat import PolyMatrix, block_diagonal, mat_mul, poly_matrix_det


class CliffordRep:
    """A pencil together with a form f and degree d, claiming M(y)^d = f*I.

    The claim is *not* trusted at construction; ``verify_relation`` is the
    only thing that sets the verified flag and the Clifford index r = t/d.
    """

    __slots__ = ("pencil", "f", "d", "notes", "_verified", "_index")

    def __init__(self, pencil: LinearPencil, f: Poly, d: int,
                 notes: tuple[str, ...] = ()):
        if d < 1:
            raise InputError("degree d must be >= 1")
        if f.ring != pencil.ring:
            raise InputError("form and pencil live in different rings")
        self.pencil = pencil
        self.f = f
        self.d = d
        self.notes = tuple(notes)
        self._verified = False
        self._index = None

    @property
    def ring(self) -> PolyRing:
        return self.pencil.ring

    @property
    def size(self) -> int:
        return self.pencil.size

    @property
    def verified(self) -> bool:
        return self._verified

    @property
    def clifford_index(self) -> int | None:
        return self._index

    def scalar_matrices(self) -> list:
        """The A_i as matrices of field scalars (base-free reps only)."""
        if self.ring.base_count:
            raise UnsupportedBase("pencil has base variables; specialize first")
        return [[[entry.constant() for entry in row] for row in m]
                for m in self.pencil.matrices]

    def __eq__(self, other):
        return (isinstance(other, CliffordRep) and self.pencil == other.pencil
                and self.f == other.f and self.d == other.d)

    def __repr__(self):
        state = f"r={self._index}" if self._verified else "unverified"
        return f"CliffordRep(t={self.size}, d={self.d}, {state})"


@dataclass(frozen=True)
class RelationCertificate:
    passed: bool
    size: int
    degree: int
    clifford_index: int | None = None
    witness: tuple | None = None  # ((i, j), difference Poly)

    def describe(self) -> str:
        if self.passed:
            return (f"M(y)^{self.degree} = f*I holds symbolically; "
                    f"t={self.size}, r={self.clifford_index}")
        (i, j), diff = self.witness
        return f"M(y)^{self.degree} - f*I is nonzero at entry ({i},{j}): {diff}"


def verify_relation(rep: CliffordRep) -> RelationCertificate:
    """Check the symbolic identity M(y)^d = f*I: every coefficient matrix of
    M(y)^d - f*I must vanish; a failure names its first nonzero entry.

    On success the rep is stamped verified with r = t/d.  A passing relation
    with d not dividing t cannot happen for an honest form; it is reported as
    InternalInconsistency rather than silently accepted.
    """
    rep.f.require_y_homogeneous(rep.d, "Clifford form f")
    field = rep.ring.field
    t = rep.size
    diff = power_coefficients(rep.pencil, rep.d)
    for alpha, c in rep.f.terms.items():
        m = diff.setdefault(alpha, [[field.zero] * t for _ in range(t)])
        for i in range(t):
            m[i][i] = field.sub(m[i][i], c)
    for i in range(t):
        for j in range(t):
            terms = {alpha: c[i][j] for alpha, c in diff.items() if c[i][j]}
            if terms:
                return RelationCertificate(False, t, rep.d,
                                           witness=((i, j), Poly(rep.ring, terms)))
    if rep.size % rep.d != 0:
        raise InternalInconsistency(
            f"relation holds but d={rep.d} does not divide t={rep.size}; "
            "the form must be degenerate")
    rep._verified = True
    rep._index = rep.size // rep.d
    return RelationCertificate(True, rep.size, rep.d, rep._index)


def _require_relation(rep: CliffordRep, what: str) -> CliffordRep:
    """Verify a rep built from verified parts; a failure is a program fault."""
    cert = verify_relation(rep)
    if not cert.passed:
        raise InternalInconsistency(f"{what} failed its own relation: {cert.describe()}")
    return rep


@dataclass(frozen=True)
class DetFactorization:
    unit: object     # nonzero field scalar c
    exponent: int    # r with det M = c * f^r

    def describe(self) -> str:
        return f"det M(y) = {self.unit} * f^{self.exponent}"


def det_factorization(rep: CliffordRep, force: bool = False) -> DetFactorization:
    """Factor det M(y) as c * f^(t/d) with c a nonzero field constant.

    Raises DivisionFails when the determinant is not such a multiple; that
    signals a non-representation or a degenerate form.
    """
    if not rep.verified and not force:
        raise InputError("rep is unverified; run verify_relation or pass force=True")
    if rep.size % rep.d != 0:
        raise DivisionFails(f"d={rep.d} does not divide t={rep.size}")
    r = rep.size // rep.d
    quotient = poly_matrix_det(assemble(rep.pencil))
    for step in range(r):
        quotient = quotient.exact_div(rep.f)
        if quotient is None:
            raise DivisionFails(
                f"det M(y) is divisible by f only {step} times, expected {r}")
    if quotient.is_zero() or not quotient.is_constant():
        raise DivisionFails(f"det M(y) / f^{r} = {quotient} is not a unit")
    return DetFactorization(quotient.constant(), r)


def conjugate(rep: CliffordRep, theta: list) -> CliffordRep:
    """The rep with every A_i replaced by theta * A_i * theta^{-1}."""
    field = rep.ring.field
    theta_inv = linalg.inv(field, theta)
    if theta_inv is None:
        raise InputError("conjugating matrix is singular")
    ring = rep.ring
    th = [[ring.const(x) for x in row] for row in theta]
    th_inv = [[ring.const(x) for x in row] for row in theta_inv]
    mats = [mat_mul(mat_mul(th, [list(row) for row in m]), th_inv)
            for m in rep.pencil.matrices]
    out = CliffordRep(LinearPencil(ring, mats), rep.f, rep.d, rep.notes)
    return _require_relation(out, "conjugate") if rep.verified else out


def specialize_rep(rep: CliffordRep, point: dict) -> CliffordRep:
    """Evaluate the base variables of a parametrized rep at scalars."""
    new_pencil = specialize(rep.pencil, point)
    new_f = rep.f.evaluate(point).map_to(new_pencil.ring)
    return CliffordRep(new_pencil, new_f, rep.d, rep.notes)


# -- intertwiners -----------------------------------------------------------


def _base_monomials(ring: PolyRing, max_degree: int) -> list[tuple]:
    """Exponent tuples supported on the base variables, degree <= max_degree."""
    fiber = (0,) * ring.fiber_count
    return [fiber + mono for total in range(max_degree + 1)
            for mono in monomials(ring.base_count, total)]


def intertwiner_system(rep1: CliffordRep, rep2: CliffordRep,
                       max_base_degree: int = 0):
    """Linear system for theta with theta*A1_i = A2_i*theta for all i.

    Returns (rows, unknowns) where unknowns index (row, col, base monomial)
    of theta and rows are scalar equation rows over the field: with theta =
    sum_mu t^mu * T_mu, one row per monomial and entry of theta*M1 - M2*theta.
    """
    ring = rep1.ring
    field = ring.field
    t1, t2 = rep1.size, rep2.size
    if ring.base_count == 0:
        max_base_degree = 0
    monos = _base_monomials(ring, max_base_degree)
    unknowns = [(u, v, mu) for u in range(t2) for v in range(t1) for mu in monos]
    ucount = len(unknowns)
    nm = len(monos)
    rows: dict = {}

    def add(key, k, c):
        if key not in rows:
            rows[key] = [field.zero] * ucount
        rows[key][k] = field.add(rows[key][k], c)

    # (T_mu C1_alpha)[a][y] gains C1_alpha[x][y] * T_mu[a][x]
    for alpha, c1 in coefficients(rep1.pencil).items():
        for x, line in enumerate(c1):
            for y, c in enumerate(line):
                if c:
                    for m, mu in enumerate(monos):
                        exp = tuple(e + f for e, f in zip(alpha, mu))
                        for a in range(t2):
                            add((exp, a, y), (a * t1 + x) * nm + m, c)
    # (C2_alpha T_mu)[x][b] gains C2_alpha[x][y] * T_mu[y][b]
    for alpha, c2 in coefficients(rep2.pencil).items():
        for x, line in enumerate(c2):
            for y, c in enumerate(line):
                if c:
                    minus = field.neg(c)
                    for m, mu in enumerate(monos):
                        exp = tuple(e + f for e, f in zip(alpha, mu))
                        for b in range(t1):
                            add((exp, x, b), (y * t1 + b) * nm + m, minus)
    return list(rows.values()), unknowns


def _vector_to_theta(ring: PolyRing, unknowns, vec) -> PolyMatrix:
    t2 = 1 + max(u for u, _, _ in unknowns)
    t1 = 1 + max(v for _, v, _ in unknowns)
    terms = [[{} for _ in range(t1)] for _ in range(t2)]
    for (u, v, mu), c in zip(unknowns, vec):
        if c:
            terms[u][v][mu] = c
    return [[Poly(ring, entry) for entry in row] for row in terms]


def intertwiner_basis(rep1: CliffordRep, rep2: CliffordRep,
                      max_base_degree: int = 0) -> list[PolyMatrix]:
    """Basis of the space of theta (as Poly matrices) intertwining rep1 into rep2."""
    _check_compatible(rep1, rep2)
    rows, unknowns = intertwiner_system(rep1, rep2, max_base_degree)
    if not rows:
        basis_vecs = linalg.nullspace(rep1.ring.field, [[rep1.ring.field.zero] * len(unknowns)])
    else:
        basis_vecs = linalg.nullspace(rep1.ring.field, rows)
    return [_vector_to_theta(rep1.ring, unknowns, vec) for vec in basis_vecs]


def _check_compatible(rep1: CliffordRep, rep2: CliffordRep):
    if rep1.ring != rep2.ring:
        raise InputError("representations live over different rings")
    if rep1.f != rep2.f:
        raise InputError("representations have different forms f")
    if rep1.d != rep2.d:
        raise InputError("representations have different degrees d")


def hom_space_dim(rep1: CliffordRep, rep2: CliffordRep) -> int:
    """Dimension of {theta : theta*A1_i = A2_i*theta for all i}."""
    _check_compatible(rep1, rep2)
    if rep1.ring.base_count:
        raise UnsupportedBase("hom spaces are computed over a plain field; "
                              "specialize the base first")
    rows, unknowns = intertwiner_system(rep1, rep2)
    if not rows:
        return len(unknowns)
    return len(unknowns) - linalg.rank_field_matrix(rep1.ring.field, rows)


@dataclass(frozen=True)
class EquivalenceResult:
    verdict: str                      # equivalent | inequivalent | inconclusive
    theta: PolyMatrix | None = None
    dims: tuple[int, int] = (0, 0)    # intertwiner dims rep1->rep2, rep2->rep1
    basis: list | None = None         # kept for inconclusive outcomes
    reason: str = ""
    seed: int | None = None
    trials: int = 0


def _is_unit_matrix(theta: PolyMatrix) -> bool:
    """det(theta) is a unit: a nonzero constant of the coefficient field."""
    if all(x.is_constant() for row in theta for x in row):
        field = theta[0][0].ring.field
        values = [[x.constant() for x in row] for row in theta]
        return linalg.rank_field_matrix(field, values) == len(theta)
    d = poly_matrix_det(theta)  # only entries in the base variables need it
    return (not d.is_zero()) and d.is_constant()


def _search_invertible(field, basis: list[PolyMatrix], seed: int, trials: int,
                       exhaustive_dim: int = 3, exhaustive_p: int = 13):
    """Look for an invertible element in the span of an intertwiner basis.

    Exhaustive over GF(p) when the space is tiny (dim <= 3, p <= 13), a
    deterministic singleton check in dimension one, otherwise seeded random
    combinations.  Returns (theta, trials_used) or (None, trials_used).
    """
    dim = len(basis)
    ring = basis[0][0][0].ring

    def combine(coeffs):
        # zip(*basis) walks the rows, zip(*rows) one entry across the basis
        return [[sum((x.scale(c) for c, x in zip(coeffs, entries) if c), ring.zero())
                 for entries in zip(*rows)] for rows in zip(*basis)]

    if dim == 1:
        theta = basis[0]
        return (theta if _is_unit_matrix(theta) else None), 1
    if field.kind == "GF" and dim <= exhaustive_dim and field.p <= exhaustive_p:
        count = 0
        for coeffs in itertools.product(range(field.p), repeat=dim):
            if not any(coeffs):
                continue
            count += 1
            theta = combine(coeffs)
            if _is_unit_matrix(theta):
                return theta, count
        return None, count
    rng = random.Random(seed)
    for k in range(trials):
        if field.kind == "GF":
            coeffs = [rng.randrange(field.p) for _ in range(dim)]
        else:
            coeffs = [field.of(rng.randint(-9, 9)) for _ in range(dim)]
        if not any(coeffs):
            continue
        theta = combine(coeffs)
        if _is_unit_matrix(theta):
            return theta, k + 1
    return None, trials


def equivalence_test(rep1: CliffordRep, rep2: CliffordRep, seed: int = 0,
                     trials: int = 64, max_base_degree: int = 2) -> EquivalenceResult:
    """Decide equivalence by solving for an invertible intertwiner.

    A zero intertwiner space in either direction rules equivalence out.  A
    nonzero space with no invertible element found stays Inconclusive: over a
    finite field the sampled span may simply have missed the units, and we
    never promote absence of evidence to Inequivalent.
    """
    _check_compatible(rep1, rep2)
    if rep1.size != rep2.size:
        return EquivalenceResult("inequivalent", reason="size mismatch")
    delta = max_base_degree if rep1.ring.base_count else 0
    basis_12 = intertwiner_basis(rep1, rep2, delta)
    basis_21 = intertwiner_basis(rep2, rep1, delta)
    dims = (len(basis_12), len(basis_21))
    if not basis_12 or not basis_21:
        return EquivalenceResult(
            "inequivalent", dims=dims,
            reason="intertwiner space is zero in at least one direction")
    theta, used = _search_invertible(rep1.ring.field, basis_12, seed, trials)
    if theta is not None:
        return EquivalenceResult("equivalent", theta=theta, dims=dims,
                                 seed=seed, trials=used)
    return EquivalenceResult("inconclusive", dims=dims, basis=basis_12,
                             reason="nonzero intertwiner space, no invertible "
                                    "element found within the trial budget",
                             seed=seed, trials=used)


# -- sums and twists -----------------------------------------------------------


def direct_sum(rep1: CliffordRep, rep2: CliffordRep) -> CliffordRep:
    _check_compatible(rep1, rep2)
    mats = [block_diagonal([[list(r) for r in m1], [list(r) for r in m2]])
            for m1, m2 in zip(rep1.pencil.matrices, rep2.pencil.matrices)]
    out = CliffordRep(LinearPencil(rep1.ring, mats), rep1.f, rep1.d,
                      rep1.notes + rep2.notes)
    if rep1.verified and rep2.verified:
        return _require_relation(out, "direct_sum")
    return out


def twist_by_free(rep: CliffordRep, mult: int) -> CliffordRep:
    """Tensor with a free module of rank mult: every A_i becomes I (x) A_i.

    That is mult diagonal copies of A_i, a rep equivalent to A_i (x) I by a
    permutation of the basis.
    """
    if mult < 1:
        raise InputError("multiplicity must be >= 1")
    if mult == 1:
        return rep
    mats = [block_diagonal([[list(r) for r in m]] * mult)
            for m in rep.pencil.matrices]
    out = CliffordRep(LinearPencil(rep.ring, mats), rep.f, rep.d, rep.notes)
    return _require_relation(out, "twist_by_free") if rep.verified else out


# -- irreducibility --------------------------------------------------------------


@dataclass(frozen=True)
class IrreducibilityResult:
    verdict: str                 # irreducible | reducible | inconclusive
    algebra_dim: int
    subspace: list | None = None  # invariant subspace basis when reducible
    detail: str = ""


def _closure(field, vectors: list, act) -> list[list]:
    """RREF basis of the smallest space containing vectors and closed under act.

    act maps a list of row vectors to the list of all their images.  Each
    round acts only on the rows whose pivot column is new: the images of the
    previous round's span are already in, so every basis direction meets
    the generators once.
    """
    basis, pivots = linalg.rref(field, vectors)
    basis = basis[:len(pivots)]
    new = basis
    while new and len(pivots) < len(basis[0]):
        old = set(pivots)
        basis, pivots = linalg.rref(field, basis + act(new))
        basis = basis[:len(pivots)]
        new = [row for row, c in zip(basis, pivots) if c not in old]
    return basis


def _generated_algebra_dim(field, mats: list, size: int) -> int:
    """Dimension of the unital algebra generated by the matrices.

    Product saturation: the span of flattened matrices, closed under right
    multiplication by the generators.
    """
    def right_products(rows):
        stacked = [v[i:i + size] for v in rows for i in range(0, size * size, size)]
        out = []
        for g in mats:
            prod = linalg.mat_mul(field, stacked, g)
            out += [[x for row in prod[k:k + size] for x in row]
                    for k in range(0, len(prod), size)]
        return out

    eye = [field.one if i == j else field.zero
           for i in range(size) for j in range(size)]
    flat = [[x for row in m for x in row] for m in mats]
    return len(_closure(field, [eye] + flat, right_products))


def _spin(field, mats: list, vec: list) -> list[list]:
    """RREF basis of the smallest subspace containing vec and invariant under mats."""
    transposed = [[list(col) for col in zip(*m)] for m in mats]

    def images(rows):  # row v maps to (m v)^T = v m^T
        return [w for mt in transposed for w in linalg.mat_mul(field, rows, mt)]

    return _closure(field, [vec], images)


def irreducibility_check(rep: CliffordRep, seed: int = 0,
                         vector_trials: int = 24) -> IrreducibilityResult:
    """Certify absolute irreducibility or exhibit an invariant subspace.

    The generated algebra filling all of t x t matrices leaves no invariant
    subspace over any extension, so that case is a certificate.  Otherwise we
    spin standard basis vectors and then seeded random vectors; a proper spin
    is an invariant subspace.  A smaller algebra with no subspace found stays
    Inconclusive: over a non-closed field the module can be simple without
    being absolutely so.
    """
    if rep.ring.base_count:
        raise UnsupportedBase("specialize the base before testing irreducibility")
    if not rep.verified:
        raise InputError("verify the relation before testing irreducibility")
    field = rep.ring.field
    size = rep.size
    mats = rep.scalar_matrices()
    algebra_dim = _generated_algebra_dim(field, mats, size)
    if algebra_dim == size * size:
        return IrreducibilityResult(
            "irreducible", algebra_dim,
            detail=f"generated algebra is all of {size}x{size} matrices")
    rng = random.Random(seed)
    candidates = []
    for i in range(size):
        v = [field.zero] * size
        v[i] = field.one
        candidates.append(v)
    for _ in range(vector_trials):
        if field.kind == "GF":
            candidates.append([rng.randrange(field.p) for _ in range(size)])
        else:
            candidates.append([field.of(rng.randint(-9, 9)) for _ in range(size)])
    for v in candidates:
        if not any(v):
            continue
        span = _spin(field, mats, v)
        if 0 < len(span) < size:
            return IrreducibilityResult(
                "reducible", algebra_dim, subspace=span,
                detail=f"invariant subspace of dimension {len(span)}")
    return IrreducibilityResult(
        "inconclusive", algebra_dim,
        detail=f"algebra dimension {algebra_dim} < {size * size} but no "
               "invariant subspace found within the trial budget")
