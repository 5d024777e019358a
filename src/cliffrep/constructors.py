"""Canonical representation constructions.

Every constructor discharges its proof obligation by running
``verify_relation`` on the result; none of them stamps the verified flag by
hand.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from . import linalg
from .clifford import CliffordRep, equivalence_test, verify_relation
from .errors import (GammaConstructionError, InputError, InternalInconsistency,
                     NondiagonalInput, RotationMismatch)
from .fields import Field, gf_divmod, gf_roots
from .pencil import LinearPencil, MFPair, extract, fiber_keys
from .poly import Poly, PolyRing
from .polymat import PolyMatrix, mat_shape


def _require_relation(rep: CliffordRep, what: str) -> CliffordRep:
    """Verify a constructor's output; a failure is a program fault."""
    cert = verify_relation(rep)
    if not cert.passed:
        raise InternalInconsistency(f"{what} failed its own relation: {cert.describe()}")
    return rep


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


def split_binary_roots(f: Poly) -> list:
    """Roots c_j of a fully split monic binary form f = prod_j (y0 + c_j*y1)
    over GF(p), ascending, each repeated by its multiplicity.

    y0 + c*y1 divides f exactly when c is a root of P(c) = f(-c, 1), with
    the same multiplicity: ``gf_roots`` finds the distinct roots of P and
    division by c - root counts each one.
    """
    ring = f.ring
    field = ring.field
    if field.kind != "GF":
        raise InputError("root finding is supported over prime fields only")
    if ring.fiber_count != 2 or f.has_base_vars():
        raise InputError("expected a binary form in y0, y1")
    d = f.y_degree()
    f.require_y_homogeneous(d, "binary form")
    lead = f.terms.get((d, 0) + (0,) * ring.base_count)
    if lead != field.one:
        raise InputError("binary form must be monic in y0")
    p = field.p
    remaining = [0] * (d + 1)
    for exp, c in f.terms.items():
        remaining[exp[0]] = -c % p if exp[0] % 2 else c
    roots = []
    for x in gf_roots(remaining, p):
        while True:
            quotient, rest = gf_divmod(remaining, [-x % p, 1], p)
            if rest:
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
    field = ring.field
    shift, clock = ([[field.zero] * d for _ in range(d)] for _ in range(2))
    for i in range(d):
        j = (i + 1) % d
        shift[i][j], clock[i][j] = field.one, field.of(form.roots[j])
    notes = ()
    if form.has_repeated_roots:
        notes = ("non-reduced form: repeated roots "
                 + ", ".join(str(c) for c in form.roots),)
    pencil = LinearPencil.from_coefficients(
        ring, d, dict(zip(fiber_keys(ring), (shift, clock))))
    rep = CliffordRep(pencil, form.f, d, notes)
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
    """The Kronecker product: entry (i*rb + k, j*cb + l) is a[i][j] * b[k][l]."""
    return [[field.mul(x, y) for x in row_a for y in row_b]
            for row_a in a for row_b in b]


def gamma_generators(field: Field, coeffs: list) -> list:
    """Pairwise anticommuting matrices G_i over the field with G_i^2 = a_i*I.

    Variables are consumed in pairs; each pair (a, b) contributes a 2x2 block
    solved through the norm equation and is glued in with the running product
    of all previous generators (which anticommutes with each of them).  The
    a_i themselves sit off-diagonal, split as a_i * 1, so no square roots of
    the coefficients are ever taken; ``gamma_quadric_rep`` proves the result.
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
        # entry (0, 0) of twist^2: row 0 of twist times its column 0
        twist_sq = linalg.mat_mul(field, twist[:1], [row[:1] for row in twist])[0][0]
        idx += 2
    if idx < len(coeffs):
        a = field.div(coeffs[idx], twist_sq)
        g2 = [[field.zero, a], [field.one, field.zero]]
        gens = [_kron_scalar(field, g, eye2) for g in gens]
        gens.append(_kron_scalar(field, twist, g2))
    return gens


def gamma_quadric_rep(ring: PolyRing, coeffs) -> CliffordRep:
    """Representation of the diagonal quadric sum(a_i * y_i^2).

    With k = n + 1 fiber variables y0..yn the size is 2^ceil(k/2), so k =
    1..7 give 2, 2, 4, 4, 8, 8, 16; characteristic 2 and zero coefficients
    are rejected.  The relation check compares the coefficient matrices G_i^2
    and G_i*G_j + G_j*G_i of M^2 with those of f*I, so it also proves that
    the generators square to the a_i and anticommute.
    """
    coeffs = [ring.field.of(a) for a in coeffs]
    if len(coeffs) != ring.fiber_count:
        raise InputError(f"expected {ring.fiber_count} coefficients, got {len(coeffs)}")
    gens = gamma_generators(ring.field, coeffs)
    keys = fiber_keys(ring)
    pencil = LinearPencil.from_coefficients(ring, len(gens[0]), dict(zip(keys, gens)))
    f = Poly(ring, {tuple(2 * e for e in key): a for key, a in zip(keys, coeffs)})
    rep = CliffordRep(pencil, f, 2)
    return _require_relation(rep, "gamma_quadric_rep")


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
    zero = f.ring.zero()
    # factor i fills block row i, block column i + 1 (mod d)
    block = [[factors[i][a][b] if j == (i + 1) % d else zero
              for j in range(d) for b in range(size)]
             for i in range(d) for a in range(size)]
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


# Drawn entries per screened block: a fixed bound on the screen's memory.
_BLOCK_ENTRIES = 1 << 13


class _RandrangeStream:
    """The values that successive ``rng.randrange(p)`` calls would return,
    read in bulk for any p >= 2.

    CPython's ``randrange(p)`` is ``getrandbits(k)`` with k = p.bit_length(),
    redrawn while the value is >= p, and ``getrandbits(k)`` takes
    w = ceil(k/32) Mersenne Twister words, least significant first, keeping
    the top bits of the last.  One ``getrandbits(32*w*m)`` call therefore
    holds m such draws in order.  Accepted values beyond a request carry
    into the next one, so the stream never skips a value.  The values come
    as an int64 array where ``linalg.fits_int64(p)``, else an object array.
    """

    def __init__(self, rng: random.Random, p: int):
        import numpy as np
        self._rng, self._p = rng, p
        self._k = p.bit_length()
        self._w = -(-self._k // 32)
        self._carry = np.empty(0, dtype=linalg.modp_dtype(p))

    def take(self, count: int):
        import numpy as np
        p, k, w = self._p, self._k, self._w
        parts = [self._carry]
        have = len(self._carry)
        while have < count:
            # expected draws for the shortfall (acceptance is p / 2^k >= 1/2)
            m = -(-((count - have) << k) // p)
            words = np.frombuffer(
                self._rng.getrandbits(32 * w * m).to_bytes(4 * w * m, "little"),
                dtype="<u4").reshape(m, w)
            values = (words[:, -1] >> (32 * w - k)).astype(
                np.int64 if w == 1 else object)
            for j in range(w - 2, -1, -1):
                values = values << 32 | words[:, j].astype(object)
            values = values[values < p].astype(self._carry.dtype)
            parts.append(values)
            have += len(values)
        stream = np.concatenate(parts)
        self._carry = stream[count:]
        return stream[:count]


def random_search(ring: PolyRing, f: Poly, d: int, t: int, seed: int,
                  budget: int) -> list[SearchHit]:
    """Sample random pencils over GF(p), keep relation hits, dedupe by equivalence.

    Candidates are screened in blocks of a fixed number of drawn entries:
    one batched ``linalg.modp_mat_pow`` per block keeps those with every
    A_i^d = f(e_i)*I, a necessary condition, before any symbolic work.  The
    entries are the values ``random.Random(seed).randrange(p)`` would give
    one at a time (see ``_RandrangeStream``), so a seed draws the same
    candidates, and survivors are checked and deduped in sample order:
    hits, sample indices and counts do not depend on the block size.
    """
    import numpy as np
    field = ring.field
    if field.kind != "GF":
        raise InputError("random search runs over prime fields only")
    if d < 1 or t < 1:
        raise InputError(f"degree d={d} and size t={t} must be positive")
    if budget < 0:
        raise InputError(f"budget must be >= 0, got {budget}")
    if t % d != 0:
        raise InputError(f"size t={t} must be a multiple of d={d}: other sizes "
                         "cannot carry the relation")
    f.require_y_homogeneous(d, "search form")
    if ring.base_count or f.has_base_vars():
        raise InputError("random search runs over base-free rings: its forms and "
                         "candidates have no base variables")
    p = field.p
    nfib = ring.fiber_count
    scalars = []
    for i in range(nfib):
        point = {name: 0 for name in ring.names[:nfib]}
        point[ring.names[i]] = 1
        scalars.append(f.evaluate(point).constant())
    targets = np.array([[[c if r == k else 0 for k in range(t)] for r in range(t)]
                        for c in scalars], dtype=linalg.modp_dtype(p))
    stream = _RandrangeStream(random.Random(seed), p)
    block = max(1, _BLOCK_ENTRIES // (nfib * t * t))
    hits: list[list] = []  # [rep, sample_index, count, maybe_duplicate]
    for start in range(0, budget, block):
        size = min(block, budget - start)
        mats = stream.take(size * nfib * t * t).reshape(size, nfib, t, t)
        powers = linalg.modp_mat_pow(mats, d, p)
        for offset in np.flatnonzero((powers == targets).all(axis=(1, 2, 3))):
            sample = start + int(offset)
            pencil = LinearPencil.from_coefficients(
                ring, t, dict(zip(fiber_keys(ring), mats[offset].tolist())))
            rep = CliffordRep(pencil, f, d)
            if not verify_relation(rep).passed:
                continue
            matched = False
            duplicate_flag = False
            for entry in hits:
                result = equivalence_test(entry[0], rep, seed=seed + sample + 1)
                if result.verdict == "equivalent":
                    entry[2] += 1
                    matched = True
                    break
                if result.verdict == "inconclusive":
                    duplicate_flag = True
            if not matched:
                hits.append([rep, sample, 1, duplicate_flag])
    return [SearchHit(rep, idx, count, flag) for rep, idx, count, flag in hits]
