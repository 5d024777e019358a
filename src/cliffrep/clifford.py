"""Linear representations of generalized Clifford algebras.

A representation of the algebra attached to a degree-d form f is a pencil
(A_0..A_n) whose assembled matrix satisfies the symbolic identity
M(y)^d = f * I.  That polynomial identity is the normative check here: it
implies the scalar relation at every point of every extension ring, which
pointwise evaluation over a finite field cannot.  The maps that preserve
it, reduction mod p included, live here and carry its proof along.

The structure kernels (Hom spaces, generated-algebra spans and spins) take
a base-free rep's generators A_i from ``_generators``, the one place that
decides their form: an int64 array over GF(p < 2^31) once the A_i reach
``_ARRAY_MIN_CELLS`` entries, a list of matrices of scalars below that and
over QQ.  One span routine, ``_closure``, serves the algebra span and every
spin on either form.  Between two reps with arrays, Hom(M1, M2) is found by
spinning, the module homomorphism algorithm of the MeatAxe (Parker 1984;
Holt, Eick and O'Brien, Handbook of Computational Group Theory, section
7.5): M1 is spun from standard vectors, and the unknowns are the images of
the s seeds, s*t2 of them, not the t1*t2 entries of theta.  Otherwise the
Kronecker system of ``intertwiner_system`` is solved for all entries.  Both
give the same answers: an RREF depends only on the row space, and the
canonical basis of a Hom space depends only on the space.  ``_hom_basis``
is the one place that picks between them, for every Hom space and Hom
dimension.

numpy is imported by the array kernels alone, when one first runs: by
``_generators`` when it builds an array, and by the spin, the spun Hom
system and the array branch of ``_closure``.  So ``equiv`` and
``irreducible`` at t >= 3 over GF(p < 2^31) (and ``irreducible`` over QQ,
whose algebra span is taken mod 2^31 - 1), Hom dimensions and ``search``
load it; ``ulrich-check``, ``verify``, ``det``, ``cohomology``,
``construct`` and ``specialize`` never do.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from . import linalg
from .errors import (BadPrime, DivisionFails, InputError, InternalInconsistency,
                     ShapeMismatch, UnsupportedBase)
from .fields import prime_field
from .pencil import (LinearPencil, assemble, fiber_keys, pencil_at,
                     power_coefficients, specialize)
from .poly import Poly, PolyRing, monomials
from .polymat import PolyMatrix, poly_matrix_det


class CliffordRep:
    """A pencil together with a form f and degree d, claiming M(y)^d = f*I.

    The claim is *not* trusted at construction.  ``verify_relation`` proves
    it for a rep from outside or from a constructor; a map preserving
    M^d = f*I (``conjugate``, ``direct_sum``, ``twist_by_free``,
    ``specialize_rep`` where f(q) != 0, and ``reduce_rep_mod_prime``) marks
    its output verified when its inputs are.  A verified rep has r = t/d.
    """

    __slots__ = ("pencil", "f", "d", "notes", "_verified")

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
        return self.size // self.d if self._verified else None

    def scalar_matrices(self) -> list:
        """The A_i as matrices of field scalars (base-free reps only)."""
        if self.ring.base_count:
            raise UnsupportedBase("pencil has base variables; specialize first")
        zero = ((self.ring.field.zero,) * self.size,) * self.size
        coefficients = self.pencil.coefficients
        return [coefficients.get(key, zero) for key in fiber_keys(self.ring)]

    def __eq__(self, other):
        return (isinstance(other, CliffordRep) and self.pencil == other.pencil
                and self.f == other.f and self.d == other.d)

    def __repr__(self):
        state = f"r={self.clifford_index}" if self._verified else "unverified"
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
    # a copy: for d = 1 the power is the pencil's own coefficient dict
    diff = dict(power_coefficients(rep.pencil, rep.d))
    for alpha, c in rep.f.terms.items():
        m = [list(row) for row in diff.get(alpha, [[field.zero] * t] * t)]
        for i in range(t):
            m[i][i] = field.sub(m[i][i], c)
        diff[alpha] = m
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
    return RelationCertificate(True, rep.size, rep.d, rep.clifford_index)


def _carry_relation(out: CliffordRep, proved: bool) -> CliffordRep:
    """Mark out verified when proved by the verified reps it was mapped from."""
    out._verified = proved
    return out


@dataclass(frozen=True)
class DetFactorization:
    unit: object     # nonzero field scalar c
    exponent: int    # r with det M = c * f^r


# Any points give an exact answer; a constant seed keeps the work the same
# on every run, whatever seed the caller passes.
_PROBE_SEED = 0
_PROBES = 4


def _random_scalars(field, rng: random.Random, count: int) -> list:
    """count seeded scalars: uniform over GF(p), integers in [-9, 9] over QQ."""
    if field.kind == "GF":
        return [rng.randrange(field.p) for _ in range(count)]
    return [field.of(rng.randint(-9, 9)) for _ in range(count)]


def _seeded_points(field, names, seed: int):
    """_PROBES points drawn from the seed, one scalar per name."""
    rng = random.Random(seed)
    for _ in range(_PROBES):
        yield dict(zip(names, _random_scalars(field, rng, len(names))))


def probe_points(ring: PolyRing):
    """The seeded points, one scalar per variable of the ring, that probe
    determinants; the same few points on every call."""
    return _seeded_points(ring.field, ring.names, _PROBE_SEED)


def _unit_from_relation(rep: CliffordRep, r: int):
    """The unit of a verified rep from det M(q) at one probe point q with
    f(q) != 0, or None when f vanishes at every probe point."""
    field = rep.ring.field
    for point in probe_points(rep.ring):
        value = rep.f.evaluate(point).constant()
        if value:
            unit = field.div(linalg.det(field, pencil_at(rep.pencil, point)),
                             field.pow(value, r))
            if field.pow(unit, rep.d) != field.one:
                raise InternalInconsistency(
                    f"det M(q) / f(q)^{r} = {unit} is no {rep.d}-th root of "
                    "unity although M^d = f*I holds")
            return unit
    return None


def det_factorization(rep: CliffordRep, force: bool = False) -> DetFactorization:
    """Factor det M(y) as c * f^(t/d) with c a nonzero field constant.

    On a verified rep the relation proves the shape.  M^d = f*I gives
    det(M)^d = f^t, so det M / f^(t/d) is a d-th root of unity in k(t, y);
    k is algebraically closed in that purely transcendental extension, so
    it is a constant c of k.  Then det M(q) = c * f(q)^(t/d) at every point
    q, and one seeded point with f(q) != 0 reads c off exactly.  Only when f
    vanishes at every probe point (possible over a small GF(p)) does the
    symbolic Bareiss determinant decide, as it does for an unverified
    pencil under force=True.  There a determinant that is not such a
    multiple raises DivisionFails: a non-representation or a degenerate form.
    """
    if not rep.verified and not force:
        raise InputError("rep is unverified; run verify_relation or pass force=True")
    if rep.size % rep.d != 0:
        raise DivisionFails(f"d={rep.d} does not divide t={rep.size}")
    r = rep.size // rep.d
    if rep.verified:
        unit = _unit_from_relation(rep, r)
        if unit is not None:
            return DetFactorization(unit, r)
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
    if len(theta) != rep.size or any(len(row) != rep.size for row in theta):
        raise ShapeMismatch(f"conjugating matrix must be {rep.size}x{rep.size}")
    field = rep.ring.field
    theta = [[field.of(x) for x in row] for row in theta]
    theta_inv = linalg.inv(field, theta)
    if theta_inv is None:
        raise InputError("conjugating matrix is singular")
    coeffs = {alpha: linalg.mat_mul(field, linalg.mat_mul(field, theta, c), theta_inv)
              for alpha, c in rep.pencil.coefficients.items()}
    pencil = LinearPencil.from_coefficients(rep.ring, rep.size, coeffs)
    return _carry_relation(CliffordRep(pencil, rep.f, rep.d, rep.notes), rep.verified)


def specialize_rep(rep: CliffordRep, point: dict) -> CliffordRep:
    """Evaluate the base variables of a parametrized rep at scalars; the
    fiber of a verified rep inherits M(q)^d = f(q)*I unless f(q) = 0."""
    new_pencil = specialize(rep.pencil, point)
    new_f = rep.f.evaluate(point).map_to(new_pencil.ring)
    return _carry_relation(CliffordRep(new_pencil, new_f, rep.d, rep.notes),
                           rep.verified and not new_f.is_zero())


def reduce_rep_mod_prime(rep: CliffordRep, prime: int) -> CliffordRep:
    """Reduce a verified rational rep mod p, rejecting primes that kill det(M);
    the reduction inherits the proof of M^d = f*I."""
    source = rep.ring
    if source.field.kind != "QQ" or not rep.verified:
        raise InputError("only verified rational reps are reduced modulo a prime")
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
    # M^d = f*I survives reduction, so det(M)^d = f^t: det(M) vanishes mod p
    # exactly when f does
    if reduced.f.is_zero():
        raise BadPrime(f"det(M) vanishes mod {prime}; choose another prime")
    return _carry_relation(reduced, True)


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
    for alpha, c1 in rep1.pencil.coefficients.items():
        for x, line in enumerate(c1):
            for y, c in enumerate(line):
                if c:
                    for m, mu in enumerate(monos):
                        exp = tuple(e + f for e, f in zip(alpha, mu))
                        for a in range(t2):
                            add((exp, a, y), (a * t1 + x) * nm + m, c)
    # (C2_alpha T_mu)[x][b] gains C2_alpha[x][y] * T_mu[y][b]
    for alpha, c2 in rep2.pencil.coefficients.items():
        for x, line in enumerate(c2):
            for y, c in enumerate(line):
                if c:
                    minus = field.neg(c)
                    for m, mu in enumerate(monos):
                        exp = tuple(e + f for e, f in zip(alpha, mu))
                        for b in range(t1):
                            add((exp, x, b), (y * t1 + b) * nm + m, minus)
    return list(rows.values()), unknowns


# A base-free rep over GF(p < 2^31) has its generators as an int64 array
# once its A_i (t x t) have this many entries, t >= 3; its algebra spans
# and spins then run on arrays, and Hom between two such reps is spun.
# Measured in process over GF(3), GF(7) and GF(101), five blocks of 200
# calls each, min-max ms, lists vs arrays: equivalence_test of the 2x2
# gamma rep of y0^2 + 2*y1^2 against a conjugate 0.17-0.27 vs 0.74-1.03,
# its irreducibility_check 0.06-0.12 vs 0.18-0.38; a 3x3 clock cubic
# against a conjugate 0.87-1.35 vs 0.78-1.43; the 4x4 gamma rep against a
# conjugate at GF(101) 3.7-4.0 vs 1.9-2.0.  random_search dedupes its 2x2
# hits with equivalence_test, on lists.
_ARRAY_MIN_CELLS = 9

# A QQ algebra span is first computed mod this prime.  Reduction mod p can
# only lower the rank of the span of the products, so dimension t^2 mod p
# proves dimension t^2 over QQ; anything less is no verdict.
_QQ_PROOF_PRIME = (1 << 31) - 1


def _uses_arrays(field, cells: int) -> bool:
    """Whether a kernel over field on matrices of this many entries runs on
    int64 arrays."""
    return (field.kind == "GF" and linalg.fits_int64(field.p)
            and cells >= _ARRAY_MIN_CELLS)


def _generators(rep: CliffordRep):
    """The A_i of a base-free rep: a (g, t, t) int64 array when its kernels
    run on arrays, else a list of matrices.  The one place that decides."""
    if _uses_arrays(rep.ring.field, rep.size * rep.size):
        import numpy as np
        return np.array(rep.scalar_matrices(), dtype=np.int64)
    return rep.scalar_matrices()


def _spin_module(gens1, gens2, p: int):
    """Spin M1 = k^t1 under the (g, t1, t1) array gens1 from standard
    vectors, one breadth-first layer at a time.

    e_k becomes a new seed when it is outside the span so far.  Every other
    basis vector is an image b_j = A1_i*b_j' of an earlier one, and its word
    W_j = A2_i*W_j' in the (g, t2, t2) array gens2 is what a homomorphism
    theta must send it to: theta*b_j = W_j * theta*e_seed.  Returns the
    basis rows b_j, their words, the seed number of each and the images
    A1_i*b_j as a (g, t1, t1) array of rows.
    """
    import numpy as np
    t1, t2 = gens1.shape[-1], gens2.shape[-1]
    gens1_t = gens1.transpose(0, 2, 1)  # a row b maps to (A b)^T = b A^T
    eye = np.eye(t1, dtype=np.int64)
    basis, words, seeds, images = [], [], [], []
    echelon, pivots = eye[:0], []  # RREF of the span so far
    seed = 0
    while len(pivots) < t1:
        # e_k is in the span iff its column is a pivot whose row is e_k
        row_of = dict(zip(pivots, range(len(pivots))))
        k = next(k for k in range(t1) if k not in row_of
                 or np.count_nonzero(echelon[row_of[k]]) > 1)
        layer, layer_words = eye[[k]], np.eye(t2, dtype=np.int64)[None]
        fresh = (layer - linalg.matmul_modp(layer[:, pivots], echelon, p)) % p
        while len(layer):
            basis.append(layer)
            words.append(layer_words)
            seeds += [seed] * len(layer)
            # the new rows, reduced against the old span, extend its RREF
            fresh, new_pivots, _ = linalg.rref_modp(fresh, p)
            echelon = np.concatenate(((echelon - linalg.matmul_modp(
                echelon[:, new_pivots], fresh, p)) % p, fresh))
            pivots += new_pivots
            found = linalg.matmul_modp(layer, gens1_t, p)  # (g, L, t1)
            images.append(found)
            found = found.reshape(-1, t1)
            residues = (found - linalg.matmul_modp(found[:, pivots], echelon, p)) % p
            candidates = np.flatnonzero(residues.any(axis=1))
            # a greedy maximal independent set: the pivot columns of the
            # residues' transpose
            picks = candidates[linalg.rref_modp(
                np.ascontiguousarray(residues[candidates].T), p)[1]]
            gen, parent = np.divmod(picks, len(layer))
            layer, fresh = found[picks], residues[picks]
            layer_words = linalg.matmul_modp(gens2[gen], layer_words[parent], p)
        seed += 1
    return (np.concatenate(basis), np.concatenate(words), np.array(seeds),
            np.concatenate(images, axis=1))


def _spun_system(gens1, gens2, p: int):
    """The homomorphism equations of the MeatAxe (Parker 1984; Holt, Eick
    and O'Brien, Handbook of Computational Group Theory, section 7.5) over
    GF(p < 2^31), from the (g, t1, t1) and (g, t2, t2) generator arrays.

    The unknowns u = (theta*e_k1, ..., theta*e_ks) are the images of the s
    seeds of ``_spin_module``, s*t2 of them.  theta*b_j = Phi_j*u, with
    Phi_j the word W_j in the block of its seed, so with B the basis rows
    theta*e_v = Psi_v*u for Psi = B^-1*Phi.  theta intertwines iff
    theta*(A1_i*b_j) = A2_i*theta*b_j for all i and j, that is iff
    sum_v (A1_i*b_j)[v]*Psi_v*u = A2_i*Phi_j*u.  Returns the rows of that
    system (zero rows dropped) and Psi as a (t1*t2, s*t2) array.
    """
    import numpy as np
    g, t1, t2 = len(gens1), gens1.shape[-1], gens2.shape[-1]
    basis, words, seeds, images = _spin_module(gens1, gens2, p)
    s = int(seeds.max()) + 1
    phi = np.zeros((t1, t2, s, t2), dtype=np.int64)
    phi[np.arange(t1), :, seeds, :] = words
    phi = phi.reshape(t1, t2, s * t2)
    inverse = linalg.rref_modp(np.concatenate(
        (basis, np.eye(t1, dtype=np.int64)), axis=1), p)[0][:, t1:]
    psi = linalg.matmul_modp(inverse, phi.reshape(t1, -1), p)
    lhs = linalg.matmul_modp(images.reshape(g * t1, t1), psi, p)
    rhs = linalg.matmul_modp(gens2[:, None], phi[None], p)
    system = (lhs.reshape(rhs.shape) - rhs) % p
    system = system.reshape(-1, s * t2)
    return system[system.any(axis=1)], psi.reshape(t1 * t2, s * t2)


def _spun_basis(gens1, gens2, p: int, dim_only: bool):
    """The canonical basis of Hom(M1, M2) over GF(p < 2^31): the rows that
    ``linalg.nullspace`` gives for ``intertwiner_system``, over the
    row-major entries of theta.  With dim_only, just its dimension: the
    number of free columns of the spun system.

    That basis is the one that is the identity on the free columns, listed
    by free column, and any basis of the space gives it back: the RREF with
    the columns reversed has the free columns as its pivots.
    """
    import numpy as np
    t1, t2 = gens1.shape[-1], gens2.shape[-1]
    system, psi = _spun_system(gens1, gens2, p)
    cols = system.shape[1]
    reduced, pivots, _ = linalg.rref_modp(system, p)
    free = sorted(set(range(cols)) - set(pivots))
    if dim_only:
        return len(free)
    if not free:
        return np.zeros((0, t2 * t1), dtype=np.int64)
    kernel = np.zeros((len(free), cols), dtype=np.int64)
    kernel[np.arange(len(free)), free] = 1
    kernel[:, pivots] = -reduced[:len(pivots), free].T % p
    # column v of each theta is Psi_v*u: entry [v, w, k] is theta_k[w][v]
    thetas = linalg.matmul_modp(psi, kernel.T, p).reshape(t1, t2, -1)
    thetas = np.ascontiguousarray(thetas.transpose(2, 1, 0)[:, ::-1, ::-1])
    reduced = linalg.rref_modp(thetas.reshape(len(free), t2 * t1), p)[0]
    return reduced[::-1, ::-1]


def _hom_basis(rep1: CliffordRep, rep2: CliffordRep, max_base_degree: int,
               dim_only: bool = False):
    """(basis vectors, unknowns) of ``intertwiner_basis``, or with dim_only
    just the dimension: the canonical nullspace of ``intertwiner_system``,
    or the same basis spun when both base-free reps have generator arrays.
    Every Hom space and Hom dimension of this module is found here."""
    ring = rep1.ring
    field = ring.field
    if not ring.base_count:
        gens1, gens2 = _generators(rep1), _generators(rep2)
        if not (isinstance(gens1, list) or isinstance(gens2, list)):
            basis = _spun_basis(gens1, gens2, field.p, dim_only)
            if dim_only:
                return basis
            constant = (0,) * ring.nvars
            return basis.tolist(), [(u, v, constant) for u in range(rep2.size)
                                    for v in range(rep1.size)]
    rows, unknowns = intertwiner_system(rep1, rep2, max_base_degree)
    vecs = linalg.nullspace(field, rows if rows else [[field.zero] * len(unknowns)])
    return len(vecs) if dim_only else (vecs, unknowns)


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
    if max_base_degree < 0:
        raise InputError(f"base degree bound must be >= 0, got {max_base_degree}")
    vecs, unknowns = _hom_basis(rep1, rep2, max_base_degree)
    return [_vector_to_theta(rep1.ring, unknowns, vec) for vec in vecs]


def _check_compatible(rep1: CliffordRep, rep2: CliffordRep):
    if rep1.ring != rep2.ring:
        raise InputError("representations live over different rings")
    if rep1.f != rep2.f:
        raise InputError("representations have different forms f")
    if rep1.d != rep2.d:
        raise InputError("representations have different degrees d")


def hom_space_dim(rep1: CliffordRep, rep2: CliffordRep) -> int:
    """Dimension of {theta : theta*A1_i = A2_i*theta for all i}: the length
    of the ``intertwiner_basis``."""
    _check_compatible(rep1, rep2)
    if rep1.ring.base_count:
        raise UnsupportedBase("hom spaces are computed over a plain field; "
                              "specialize the base first")
    return _hom_basis(rep1, rep2, 0, dim_only=True)


@dataclass(frozen=True)
class EquivalenceResult:
    verdict: str                      # equivalent | inequivalent | inconclusive
    theta: PolyMatrix | None = None
    dims: tuple[int, int] = (0, 0)    # intertwiner dims rep1->rep2, rep2->rep1
    reason: str = ""
    seed: int | None = None           # the seed of the search; every verdict has it
    trials: int = 0                   # elements of Hom(rep1, rep2) checked


def _search_invertible(field, vecs: list, is_unit, seed: int, trials: int):
    """Look for an invertible element in the span of intertwiner basis
    vectors, combined as vectors of scalars; is_unit decides one.

    A 1-dimensional span is decided by its basis vector.  Over GF(p) a span
    of at most trials nonzero elements is enumerated whole; any other span
    gets trials seeded random combinations.  Returns (vector or None,
    trials_used, covered), covered meaning that every nonzero element of
    the span is a multiple of one checked.
    """
    dim = len(vecs)
    if dim == 1:
        return (vecs[0] if is_unit(vecs[0]) else None), 1, True
    covered = field.kind == "GF" and field.p ** dim - 1 <= trials
    if covered:  # every nonzero coefficient vector, in product order
        draws = itertools.islice(itertools.product(range(field.p), repeat=dim), 1, None)
    else:
        rng = random.Random(seed)
        draws = (_random_scalars(field, rng, dim) for _ in range(trials))
    used = 0
    for coeffs in draws:
        used += 1
        if any(coeffs):
            vec = linalg.mat_mul(field, [list(coeffs)], vecs)[0]
            if is_unit(vec):
                return vec, used, covered
    return None, used, covered


def equivalence_test(rep1: CliffordRep, rep2: CliffordRep, seed: int = 0,
                     trials: int = 64, max_base_degree: int = 2) -> EquivalenceResult:
    """Decide equivalence by solving for an invertible intertwiner.

    dims are the dimensions of Hom(rep1, rep2) and Hom(rep2, rep1), also
    for reps of different sizes.  Hom(rep1, rep2) is searched first, on
    every ring.  Over a plain field an invertible theta in it makes
    Hom(rep2, rep1), End(rep1) and Hom(rep1, rep2) isomorphic, so the
    reverse dimension is the forward one and no second space is solved.  A
    zero intertwiner space in either direction rules equivalence out, and
    so does a space the search covered without meeting a unit: one of
    dimension 1, or one over GF(p) with at most trials nonzero elements,
    enumerated whole.  Over a base ring both spaces are bounded by
    max_base_degree, so the reverse one is always solved for dims and
    neither proves anything by itself: Inequivalent then needs a base
    point q, drawn from the seed, where the fibers admit no intertwiner.
    That is a proof, since theta in GL_t(k[t]) has a constant determinant
    and theta(q) intertwines the fibers invertibly.  A nonzero space whose
    sampled elements are all singular stays Inconclusive: the sample may
    simply have missed the units, and we never promote absence of evidence
    to Inequivalent.

    Every verdict carries its seed, and trials counts the elements of
    Hom(rep1, rep2) checked.  The search combines basis vectors of scalars
    and builds the Poly theta of the answer only: a rank decides a theta of
    constants, and only base-variable entries need a symbolic determinant.
    """
    _check_compatible(rep1, rep2)
    if trials < 0:
        raise InputError(f"trial budget must be >= 0, got {trials}")
    if max_base_degree < 0:
        raise InputError(f"base degree bound must be >= 0, got {max_base_degree}")
    ring = rep1.ring
    size = rep1.size
    vecs, unknowns = _hom_basis(rep1, rep2, max_base_degree)
    nm = len(unknowns) // (size * rep2.size)  # base monomials, the constant first

    def is_unit(vec):
        if ring.base_count and any(c for k, c in enumerate(vec) if k % nm):
            d = poly_matrix_det(_vector_to_theta(ring, unknowns, vec))
            return (not d.is_zero()) and d.is_constant()
        scalars = vec[::nm]
        square = [scalars[i:i + size] for i in range(0, size * size, size)]
        return linalg.rank(ring.field, square) == size

    vec, used, covered = None, 0, False
    if vecs and size == rep2.size:
        vec, used, covered = _search_invertible(ring.field, vecs, is_unit, seed, trials)
    dims = (len(vecs), len(vecs) if vec is not None and not ring.base_count
            else _hom_basis(rep2, rep1, max_base_degree, dim_only=True))
    theta, reason = None, ""
    if size != rep2.size:
        verdict, reason = "inequivalent", "size mismatch"
    elif vec is not None:
        verdict, theta = "equivalent", _vector_to_theta(ring, unknowns, vec)
    elif not all(dims) and not ring.base_count:
        verdict = "inequivalent"
        reason = "intertwiner space is zero in at least one direction"
    elif not all(dims):
        points = _seeded_points(ring.field, ring.names[ring.fiber_count:], seed)
        point = next((q for q in points if not hom_space_dim(
            specialize_rep(rep1, q), specialize_rep(rep2, q))), None)
        if point is None:
            verdict = "inconclusive"
            reason = (f"no intertwiner of base degree <= max_base_degree="
                      f"{max_base_degree} in at least one direction, but the "
                      f"fibers at {_PROBES} seeded base points admit intertwiners")
        else:
            at = ", ".join(f"{name}={v}" for name, v in point.items())
            verdict, reason = "inequivalent", f"the fibers at {at} admit no intertwiner"
    elif covered and not ring.base_count:
        verdict = "inequivalent"
        reason = (f"intertwiner dims {dims}: the {used} element(s) checked "
                  f"cover the span up to scalars and all are singular")
    else:
        verdict, reason = "inconclusive", ("nonzero intertwiner space, no invertible "
                                           "element found within the trial budget")
    return EquivalenceResult(verdict, theta, dims, reason, seed, used)


# -- sums and twists -----------------------------------------------------------


def _block_diagonal(pencils: list[LinearPencil]) -> LinearPencil:
    """The pencil whose coefficient matrices are block diagonal, one block
    per pencil (all over one ring)."""
    ring, size = pencils[0].ring, sum(p.size for p in pencils)
    out: dict = {}
    offset = 0
    for pencil in pencils:
        for alpha, c in pencil.coefficients.items():
            block = out.setdefault(alpha, [[ring.field.zero] * size for _ in range(size)])
            for i, row in enumerate(c):
                block[offset + i][offset:offset + pencil.size] = row
        offset += pencil.size
    return LinearPencil.from_coefficients(ring, size, out)


def direct_sum(rep1: CliffordRep, rep2: CliffordRep) -> CliffordRep:
    _check_compatible(rep1, rep2)
    out = CliffordRep(_block_diagonal([rep1.pencil, rep2.pencil]), rep1.f, rep1.d,
                      rep1.notes + rep2.notes)
    return _carry_relation(out, rep1.verified and rep2.verified)


def twist_by_free(rep: CliffordRep, mult: int) -> CliffordRep:
    """Tensor with a free module of rank mult: every A_i becomes I (x) A_i.

    That is mult diagonal copies of A_i, a rep equivalent to A_i (x) I by a
    permutation of the basis.
    """
    if not isinstance(mult, int) or mult < 1:
        raise InputError(f"multiplicity must be an integer >= 1, got {mult!r}")
    if mult == 1:
        return rep
    out = CliffordRep(_block_diagonal([rep.pencil] * mult), rep.f, rep.d, rep.notes)
    return _carry_relation(out, rep.verified)


# -- irreducibility --------------------------------------------------------------


@dataclass(frozen=True)
class IrreducibilityResult:
    verdict: str                 # irreducible | reducible | inconclusive
    algebra_dim: int
    subspace: list | None = None  # invariant subspace basis when reducible
    detail: str = ""


def _closure(field, rows: list, mats):
    """RREF basis of the smallest row space that contains rows and stays
    closed when each length-t block of a row is multiplied on the right by
    every t x t matrix in mats.

    mats is a list of matrices, or a (g, t, t) int64 array over GF(p < 2^31),
    and the basis then an int64 array.  Each round multiplies only the rows
    whose pivot column is new: the images of the previous round's span are
    already in, so every basis direction meets the generators once.
    """
    arrays = not isinstance(mats, list)
    if arrays:
        import numpy as np
        rows = np.array(rows, dtype=np.int64)
    t = len(mats[0])

    def span(rows):
        if arrays:
            reduced, pivots, _ = linalg.rref_modp(rows, field.p)
        else:
            reduced, pivots = linalg.rref(field, rows)
        return reduced[:len(pivots)], pivots

    def grow(basis, new):
        """basis followed by the block-wise right products of the rows new."""
        width = len(new[0])
        if arrays:
            images = linalg.matmul_modp(new.reshape(-1, t), mats, field.p)
            return np.concatenate((basis, images.reshape(-1, width)))
        blocks = [row[i:i + t] for row in new for i in range(0, width, t)]
        step = width // t  # blocks per row
        for m in mats:
            prod = linalg.mat_mul(field, blocks, m)
            basis = basis + [[x for block in prod[k:k + step] for x in block]
                             for k in range(0, len(prod), step)]
        return basis

    basis, pivots = span(rows)
    new = basis
    while len(new) and len(pivots) < len(basis[0]):
        old = set(pivots)
        basis, pivots = span(grow(basis, new))
        new = [k for k, c in enumerate(pivots) if c not in old]
        new = basis[new] if arrays else [basis[k] for k in new]
    return basis


def _generated_algebra_dim(field, mats) -> int:
    """Dimension of the unital algebra generated by the matrices (a list, or
    a (g, t, t) int64 array over GF(p)): the closure of vec(I) and the
    vec(A_i) under right multiplication by the A_i."""
    t = len(mats[0])
    eye = [[field.one if i == j else field.zero for j in range(t)] for i in range(t)]
    return len(_closure(field, [[x for row in m for x in row] for m in [eye, *mats]],
                        mats))


def _full_algebra_mod_p(rep: CliffordRep) -> bool:
    """Whether a verified QQ rep generates all t x t matrices mod
    ``_QQ_PROOF_PRIME``, which proves that it does over QQ.  A prime the
    reduction rejects proves nothing."""
    try:
        reduced = reduce_rep_mod_prime(rep, _QQ_PROOF_PRIME)
    except BadPrime:
        return False
    return (_generated_algebra_dim(reduced.ring.field, _generators(reduced))
            == rep.size ** 2)


def _spin(field, mats, vec: list) -> list[list]:
    """RREF basis of the smallest subspace containing vec and invariant under
    mats (a list, or a (g, t, t) int64 array over GF(p)): the closure of
    [vec] under their transposes, since a row v maps to (m v)^T = v m^T."""
    if isinstance(mats, list):
        return _closure(field, [vec], [list(zip(*m)) for m in mats])
    return _closure(field, [vec], mats.transpose(0, 2, 1)).tolist()


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
    if vector_trials < 0:
        raise InputError(f"vector trial budget must be >= 0, got {vector_trials}")
    field = rep.ring.field
    size = rep.size
    mats = _generators(rep)
    full_mod_p = field.kind == "QQ" and _full_algebra_mod_p(rep)
    algebra_dim = size * size if full_mod_p else _generated_algebra_dim(field, mats)
    if algebra_dim == size * size:
        return IrreducibilityResult(
            "irreducible", algebra_dim,
            detail=f"generated algebra is all of {size}x{size} matrices")
    rng = random.Random(seed)
    candidates = itertools.chain(
        ([field.one if i == j else field.zero for j in range(size)]
         for i in range(size)),
        (_random_scalars(field, rng, size) for _ in range(vector_trials)))
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
