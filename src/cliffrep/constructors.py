"""Canonical representation constructions.

Every constructor discharges its proof obligation by running
``verify_relation`` on the result; none of them stamps the verified flag by
hand.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from . import linalg
from .clifford import (CliffordRep, _require_relation, equivalence_test,
                       verify_relation)
from .errors import (GammaConstructionError, InputError, InternalInconsistency,
                     NondiagonalInput, RotationMismatch)
from .fields import Field
from .pencil import LinearPencil, MFPair, extract
from .poly import Poly, PolyRing
from .polymat import PolyMatrix, mat_shape, zero_matrix


# -- degree one ----------------------------------------------------------------


def hyperplane_rep(f: Poly) -> CliffordRep:
    """The 1x1 representation of a linear form: A_i = [coefficient of y_i]."""
    f.require_y_homogeneous(1, "hyperplane form")
    return _require_relation(CliffordRep(extract([[f]]), f, 1), "hyperplane_rep")


# -- split binary forms ----------------------------------------------------------


@dataclass(frozen=True)
class SplitBinaryForm:
    """A binary form given in factored shape: f = prod_j (y0 + c_j * y1)."""
    ring: PolyRing
    roots: tuple
    f: Poly

    def __post_init__(self):
        if self.ring.fiber_count != 2:
            raise InputError("split binary forms need exactly two fiber variables")
        if not self.roots:
            raise InputError("need at least one root")
        if self.f != _expand_split(self.ring, self.roots):
            raise InputError("stored form does not expand to the root product")

    @property
    def degree(self) -> int:
        return len(self.roots)

    @property
    def has_repeated_roots(self) -> bool:
        return len(set(self.roots)) < len(self.roots)

    @classmethod
    def from_roots(cls, ring: PolyRing, roots) -> "SplitBinaryForm":
        rts = tuple(ring.field.of(c) for c in roots)
        return cls(ring, rts, _expand_split(ring, rts))


def _expand_split(ring: PolyRing, roots) -> Poly:
    y0, y1 = ring.var("y0"), ring.var("y1")
    out = ring.one()
    for c in roots:
        out = out * (y0 + y1.scale(c))
    return out


def split_binary_roots(f: Poly, max_prime: int = 10 ** 4) -> list:
    """Roots c_j of a fully split monic binary form over GF(p), by scan.

    Helper for accepting forms rather than root lists; p <= 10^4 keeps the
    exhaustive scan honest.
    """
    ring = f.ring
    field = ring.field
    if field.kind != "GF":
        raise InputError("root scanning is supported over prime fields only")
    if field.p > max_prime:
        raise InputError(f"root scan limited to p <= {max_prime}")
    if ring.fiber_count != 2 or f.has_base_vars():
        raise InputError("expected a binary form in y0, y1")
    d = f.y_degree()
    f.require_y_homogeneous(d, "binary form")
    lead = f.terms.get((d, 0) + (0,) * ring.base_count)
    if lead != field.one:
        raise InputError("binary form must be monic in y0")
    roots = []
    remaining = f
    for x in range(field.p):
        linear = ring.var("y0") + ring.var("y1").scale(x)
        while len(roots) < d:
            quotient = remaining.exact_div(linear)
            if quotient is None:
                break
            roots.append(x)
            remaining = quotient
    if len(roots) != d:
        raise InputError("form does not split completely over the field")
    return roots


def clock_shift_rep(form: SplitBinaryForm) -> CliffordRep:
    """The d x d cyclic representation of a split binary form.

    M places y0 + c_j*y1 along a d-cycle, so M^d multiplies the factors out
    to f * I.  Repeated roots are allowed; the rep is then flagged because
    the form is non-reduced and its hypersurface everywhere singular along a
    component.
    """
    d = form.degree
    if d < 2:
        raise InputError("clock-shift construction needs degree >= 2")
    ring = form.ring
    matrix = zero_matrix(ring, d)
    y0, y1 = ring.var("y0"), ring.var("y1")
    for i in range(d):
        j = (i + 1) % d
        matrix[i][j] = y0 + y1.scale(form.roots[j])
    notes = ()
    if form.has_repeated_roots:
        notes = ("non-reduced form: repeated roots "
                 + ", ".join(str(c) for c in form.roots),)
    rep = CliffordRep(extract(matrix), form.f, d, notes)
    return _require_relation(rep, "clock_shift_rep")


# -- diagonal quadrics ------------------------------------------------------------


def solve_norm_equation(field: Field, a, b):
    """Some (x, z) with x^2 - a*z^2 = b, or raise GammaConstructionError.

    Over GF(p), p odd, the binary form x^2 - a*z^2 is universal, so a scan in
    z always lands.  Over QQ we try the closed forms (b a square, a a square,
    -b/a a square) and then a bounded rational scan; failure means the
    quaternion algebra (a, b) may be nonsplit, in which case no solution
    exists in the field at all.
    """
    if not a or not b:
        raise InputError("norm equation needs nonzero a, b")
    if field.kind == "GF":
        p = field.p
        for z in range(p):
            rhs = (b + a * z * z) % p
            if field.is_square(rhs):
                return field.sqrt(rhs), z
        raise GammaConstructionError(f"no solution of x^2 - {a}z^2 = {b} mod {p}")
    if field.is_square(b):
        return field.sqrt(b), field.zero
    if field.is_square(a):
        s = field.sqrt(a)
        two = field.of(2)
        return field.div(field.add(b, field.one), two), \
            field.div(field.sub(b, field.one), field.mul(two, s))
    neg_ratio = field.neg(field.div(b, a))
    if field.is_square(neg_ratio):
        return field.zero, field.sqrt(neg_ratio)
    from fractions import Fraction
    for den in range(1, 7):
        for num in range(0, 12 * den + 1):
            x = Fraction(num, den)
            z_sq = (x * x - b) / a
            if field.is_square(z_sq):
                return x, field.sqrt(z_sq)
    raise GammaConstructionError(
        f"x^2 - ({a})z^2 = {b} has no rational point in the search box; "
        "the quaternion algebra may be nonsplit over QQ")


def _kron_scalar(field: Field, a: list, b: list) -> list:
    ra, ca = len(a), len(a[0])
    rb, cb = len(b), len(b[0])
    out = [[field.zero] * (ca * cb) for _ in range(ra * rb)]
    for i in range(ra):
        for j in range(ca):
            if not a[i][j]:
                continue
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k][j * cb + l] = field.mul(a[i][j], b[k][l])
    return out


def _scalar_square_value(field: Field, m: list):
    sq = linalg.mat_mul(field, m, m)
    size = len(m)
    c = sq[0][0]
    for i in range(size):
        for j in range(size):
            if sq[i][j] != (c if i == j else field.zero):
                raise InternalInconsistency("twist element does not square to a scalar")
    return c


def gamma_generators(field: Field, coeffs: list) -> list:
    """Pairwise anticommuting matrices G_i over the field with G_i^2 = a_i*I.

    Variables are consumed in pairs; each pair (a, b) contributes a 2x2 block
    solved through the norm equation and is glued in with the running product
    of all previous generators (which anticommutes with each of them).  The
    a_i themselves sit off-diagonal, split as a_i * 1, so no square roots of
    the coefficients are ever taken.
    """
    if field.characteristic == 2:
        raise InputError("gamma construction requires characteristic != 2")
    coeffs = [field.of(a) for a in coeffs]
    if any(not a for a in coeffs):
        raise InputError("all diagonal coefficients must be nonzero")
    gens: list = []
    twist = [[field.one]]
    twist_sq = field.one
    eye2 = [[field.one, field.zero], [field.zero, field.one]]
    idx = 0
    while idx + 1 < len(coeffs):
        a = field.div(coeffs[idx], twist_sq)
        b = field.div(coeffs[idx + 1], twist_sq)
        g2 = [[field.zero, a], [field.one, field.zero]]
        x, z = solve_norm_equation(field, a, b)
        h2 = [[x, field.neg(field.mul(a, z))], [z, field.neg(x)]]
        gens = [_kron_scalar(field, g, eye2) for g in gens]
        gens.append(_kron_scalar(field, twist, g2))
        gens.append(_kron_scalar(field, twist, h2))
        twist = gens[0]
        for g in gens[1:]:
            twist = linalg.mat_mul(field, twist, g)
        twist_sq = _scalar_square_value(field, twist)
        idx += 2
    if idx < len(coeffs):
        a = field.div(coeffs[idx], twist_sq)
        g2 = [[field.zero, a], [field.one, field.zero]]
        gens = [_kron_scalar(field, g, eye2) for g in gens]
        gens.append(_kron_scalar(field, twist, g2))
    return gens


def gamma_quadric_rep(ring: PolyRing, coeffs) -> CliffordRep:
    """Representation of the diagonal quadric sum(a_i * y_i^2).

    Size is 2^ceil((n+1)/2); characteristic 2 and zero coefficients are
    rejected.  Generator anticommutation is re-checked directly, independent
    of the final relation check.
    """
    coeffs = [ring.field.of(a) for a in coeffs]
    if len(coeffs) != ring.fiber_count:
        raise InputError(f"expected {ring.fiber_count} coefficients, got {len(coeffs)}")
    field = ring.field
    gens = gamma_generators(field, coeffs)
    _check_gamma_relations(field, gens, coeffs)
    mats = [[[ring.const(x) for x in row] for row in g] for g in gens]
    f = ring.zero()
    for i, a in enumerate(coeffs):
        y = ring.var(ring.names[i])
        f = f + (y * y).scale(a)
    rep = CliffordRep(LinearPencil(ring, mats), f, 2)
    return _require_relation(rep, "gamma_quadric_rep")


def _check_gamma_relations(field: Field, gens: list, coeffs: list):
    size = len(gens[0])
    for i, g in enumerate(gens):
        sq = linalg.mat_mul(field, g, g)
        for a in range(size):
            for b in range(size):
                want = coeffs[i] if a == b else field.zero
                if sq[a][b] != want:
                    raise InternalInconsistency(f"generator {i} squares wrong")
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            anti = linalg.mat_mul(field, gens[i], gens[j])
            ji = linalg.mat_mul(field, gens[j], gens[i])
            for a in range(size):
                for b in range(size):
                    if field.add(anti[a][b], ji[a][b]) != field.zero:
                        raise InternalInconsistency(
                            f"generators {i},{j} do not anticommute")


def diagonal_coefficients(f: Poly) -> list:
    """Coefficients a_i of a diagonal quadric; NondiagonalInput otherwise."""
    f.require_y_homogeneous(2, "quadric")
    ring = f.ring
    coeffs = [ring.field.zero] * ring.fiber_count
    for exp, c in f.terms.items():
        fiber = exp[:ring.fiber_count]
        if any(exp[ring.fiber_count:]):
            raise NondiagonalInput("quadric has base-variable coefficients")
        square_at = [i for i, e in enumerate(fiber) if e]
        if len(square_at) != 1 or fiber[square_at[0]] != 2:
            raise NondiagonalInput(
                f"quadric has a cross term {Poly(ring, {exp: c})}; "
                "use block_from_mf for nondiagonal quadrics")
        coeffs[square_at[0]] = c
    if any(not c for c in coeffs):
        raise NondiagonalInput("quadric must involve every fiber variable")
    return coeffs


def gamma_quadric_rep_from_form(f: Poly) -> CliffordRep:
    return gamma_quadric_rep(f.ring, diagonal_coefficients(f))


# -- block lifts -----------------------------------------------------------------


def block_from_mf(pair: MFPair) -> CliffordRep:
    """[[0, phi], [psi, 0]] squares to f*I exactly because phi*psi = psi*phi = f*I."""
    return cyclic_block_rep([pair.phi, pair.psi], pair.f)


def cyclic_block_rep(factors: list[PolyMatrix], f: Poly) -> CliffordRep:
    """Block-cyclic pencil from a d-fold factorization of f.

    Requires every cyclic rotation M_k M_{k+1} ... M_{k-1} to equal f*I.  The
    block power is block diagonal with rotation k in block k, so the relation
    check finds the first failing rotation.
    """
    d = len(factors)
    if d < 1:
        raise InputError("need at least one factor")
    size = mat_shape(factors[0])[0]
    for k, m in enumerate(factors):
        if mat_shape(m) != (size, size):
            raise InputError(f"factor {k} is not {size}x{size}")
    f.require_y_homogeneous(d, "cyclic factorization form")
    ring = f.ring
    block = zero_matrix(ring, d * size)
    for i in range(d):
        m = factors[i]
        col = (i + 1) % d
        for a in range(size):
            for b in range(size):
                block[i * size + a][col * size + b] = m[a][b]
    rep = CliffordRep(extract(block), f, d)
    relation = verify_relation(rep)
    if not relation.passed:
        raise RotationMismatch(relation.witness[0][0] // size)
    return rep


# -- brute-force search --------------------------------------------------------------


@dataclass(frozen=True)
class SearchHit:
    rep: CliffordRep
    sample_index: int
    count: int
    maybe_duplicate: bool  # equivalence with an earlier hit came back inconclusive


def random_search(ring: PolyRing, f: Poly, d: int, t: int, seed: int,
                  budget: int, equivalence_trials: int = 64) -> list[SearchHit]:
    """Sample random pencils over GF(p), keep relation hits, dedupe by equivalence.

    Candidates failing the cheap necessary conditions A_i^d = f(e_i)*I are
    rejected before any symbolic work: each power is compared with the
    scalar matrices f(e_i)*I, built once before sampling.  Deterministic for
    a fixed seed.
    """
    field = ring.field
    if field.kind != "GF":
        raise InputError("random search runs over prime fields only")
    if t % d != 0:
        raise InputError(f"size t={t} must be a multiple of d={d}: other sizes "
                         "cannot carry the relation")
    f.require_y_homogeneous(d, "search form")
    if f.has_base_vars():
        raise InputError("search forms must be base-free")
    p = field.p
    nfib = ring.fiber_count
    targets = []
    for i in range(nfib):
        point = {name: 0 for name in ring.names[:nfib]}
        point[ring.names[i]] = 1
        value = f.evaluate(point).constant()
        targets.append([[value if r == c else 0 for c in range(t)]
                        for r in range(t)])
    rng = random.Random(seed)
    hits: list[list] = []  # [rep, sample_index, count, maybe_duplicate]
    for sample in range(budget):
        mats = [[[rng.randrange(p) for _ in range(t)] for _ in range(t)]
                for _ in range(nfib)]
        ok = True
        for m, target in zip(mats, targets):
            if linalg.modp_mat_pow(m, d, p) != target:
                ok = False
                break
        if not ok:
            continue
        poly_mats = [[[ring.const(x) for x in row] for row in m] for m in mats]
        rep = CliffordRep(LinearPencil(ring, poly_mats), f, d)
        if not verify_relation(rep).passed:
            continue
        matched = False
        duplicate_flag = False
        for entry in hits:
            result = equivalence_test(entry[0], rep, seed=seed + sample + 1,
                                      trials=equivalence_trials)
            if result.verdict == "equivalent":
                entry[2] += 1
                matched = True
                break
            if result.verdict == "inconclusive":
                duplicate_flag = True
        if not matched:
            hits.append([rep, sample, 1, duplicate_flag])
    return [SearchHit(rep, idx, count, flag) for rep, idx, count, flag in hits]
