"""Exact arithmetic that the benchmark checks cliffrep's answers against.

Nothing here imports cliffrep.linalg or cliffrep.polymat: matrices are lists
of rows of Fractions (p is None, the rationals) or residues mod a prime p,
and polynomials are read from their exponent-to-coefficient dicts.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb


def reduce(x, p):
    """x as a scalar of the field: a Fraction over QQ, a residue mod p."""
    if p is None:
        return Fraction(x)
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, p) % p


def _inv(x, p):
    return 1 / x if p is None else pow(x, -1, p)


def _norm(x, p):
    return x if p is None else x % p


def mat_mul(a, b, p):
    cols = list(zip(*b))
    return [[_norm(sum(x * y for x, y in zip(row, col)), p) for col in cols]
            for row in a]


def _eliminate(mat, p):
    """Row echelon form by Gaussian elimination; returns (det, rank)."""
    a = [list(row) for row in mat]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    det = Fraction(1) if p is None else 1
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][c]), None)
        if pivot is None:
            det = 0
            continue
        if pivot != r:
            a[r], a[pivot] = a[pivot], a[r]
            det = -det
        det = _norm(det * a[r][c], p)
        inv = _inv(a[r][c], p)
        for i in range(r + 1, rows):
            if a[i][c]:
                factor = _norm(a[i][c] * inv, p)
                a[i] = [_norm(x - factor * y, p) for x, y in zip(a[i], a[r])]
        r += 1
        if r == rows:
            break
    if r < rows or r < cols:
        det = 0
    return det, r


def det(mat, p):
    return _eliminate(mat, p)[0]


def rank(mat, p):
    return _eliminate(mat, p)[1] if mat and mat[0] else 0


def poly_at(poly, values, p):
    """Value of a cliffrep Poly at a full point, from its terms dict."""
    total = 0
    for exp, c in poly.terms.items():
        term = reduce(c, p)
        for v, e in zip(values, exp):
            if e:
                term = term * (v ** e if p is None else pow(v, e, p))
        total += term
    return _norm(total, p)


def scalar_pencil(rep):
    """The coefficient matrices A_i of a base-free rep, as plain scalars."""
    return [[[next(iter(e.terms.values())) if e.terms else 0 for e in row]
             for row in m] for m in rep.pencil.matrices]


def pencil_at(rep, values, p):
    """M(point) for a rep whose entries may involve base variables too.

    ``values`` lists the fiber coordinates first, then the base ones.
    """
    out = [[0] * rep.size for _ in range(rep.size)]
    for i, m in enumerate(rep.pencil.matrices):
        for a, row in enumerate(m):
            for b, entry in enumerate(row):
                if entry.terms:
                    out[a][b] += values[i] * poly_at(entry, values, p)
    return [[_norm(x, p) for x in row] for row in out]


def hilbert_closed_form(t, nvars, max_degree):
    """HF(e) of coker(O(-1)^t -> O^t) on P^(nvars-1): t*C(e+nvars-2, nvars-2).

    Computed as the difference of the two free modules' ranks in degree e,
    which is exact because det M != 0 makes the presentation injective.
    """
    free = [comb(nvars - 1 + e, nvars - 1) for e in range(max_degree + 1)]
    return [t * (free[e] - (free[e - 1] if e else 0))
            for e in range(max_degree + 1)]


def sqrt_mod(a, p):
    """A square root of a mod an odd prime p, or None (Tonelli-Shanks)."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def quadric_point(f, p, rng, tries=200):
    """A smooth point of the quadric f = 0 over GF(p), by line restriction.

    Fixes every coordinate but the last at random and solves the quadratic
    (or linear) a*x^2 + b*x + c = 0 read off from three values of f.
    """
    n = f.ring.fiber_count
    for _ in range(tries):
        head = [rng.randrange(p) for _ in range(n - 1)]
        v0, v1, v2 = (poly_at(f, head + [x], p) for x in (0, 1, 2))
        a = (v2 - 2 * v1 + v0) * pow(2, -1, p) % p
        b = (v1 - v0 - a) % p
        c = v0
        if a:
            root = sqrt_mod(b * b - 4 * a * c, p)
            if root is None:
                continue
            x = (-b + root) * pow(2 * a, -1, p) % p
        elif b:
            x = -c * pow(b, -1, p) % p
        else:
            continue
        point = head + [x]
        if any(point) and any(gradient_at(f, point, p)):
            return point
    raise AssertionError("no smooth point found on the quadric")


def gradient_at(f, values, p):
    """The partial derivatives of f at a point, from its terms dict."""
    out = []
    for i in range(f.ring.fiber_count):
        total = 0
        for exp, c in f.terms.items():
            if not exp[i]:
                continue
            term = reduce(c, p) * exp[i]
            for j, (v, e) in enumerate(zip(values, exp)):
                e = e - 1 if j == i else e
                if e:
                    term = term * pow(v, e, p)
            total += term
        out.append(total % p)
    return out


def relation_holds_everywhere(mats, f, d, p):
    """M(y)^d = f(y)*I at every point of GF(p)^2 (binary pencils).

    For a binary form of degree d <= p, a homogeneous degree-d identity that
    holds on all of GF(p)^2 holds as a polynomial identity, so this is a
    proof, made with no symbolic algebra.
    """
    t = len(mats[0])
    for y0 in range(p):
        for y1 in range(p):
            m = [[(y0 * x0 + y1 * x1) % p for x0, x1 in zip(r0, r1)]
                 for r0, r1 in zip(mats[0], mats[1])]
            power = m
            for _ in range(d - 1):
                power = mat_mul(power, m, p)
            value = poly_at(f, [y0, y1], p)
            for i in range(t):
                for j in range(t):
                    if power[i][j] != (value if i == j else 0):
                        return False
    return True


def smooth_points_at_least(f, p, cap):
    """min(cap, number of smooth points of V(f) in projective space over GF(p)).

    A binary form's points are counted one by one.  In three or more
    variables f must be a hyperplane or a nondegenerate quadric (p odd):
    such a hypersurface has at least p + 1 points, all of them smooth.
    """
    n = f.ring.fiber_count
    if n == 2:
        points = [[x, 1] for x in range(p)] + [[1, 0]]
        return min(cap, sum(1 for pt in points if poly_at(f, pt, p) == 0
                            and any(gradient_at(f, pt, p))))
    degree = max(sum(exp[:n]) for exp in f.terms)
    if degree == 2:
        gram = [[0] * n for _ in range(n)]
        half = pow(2, -1, p)
        for exp, c in f.terms.items():
            i, j = [k for k in range(n) for _ in range(exp[k])]
            gram[i][j] = gram[j][i] = reduce(c, p) * (1 if i == j else half) % p
        assert det(gram, p), "the quadric is degenerate mod p"
    else:
        assert degree == 1, "only hyperplanes and quadrics are counted"
    assert p + 1 >= cap
    return cap


def binary_quadric_reps(f, p):
    """How many pairs (A, B) of 2x2 matrices over GF(p) give
    (y0*A + y1*B)^2 = f*I, counted by enumeration."""
    f0, f1 = poly_at(f, [1, 0], p), poly_at(f, [0, 1], p)
    f01 = (poly_at(f, [1, 1], p) - f0 - f1) % p
    mats = [[[a, b], [c, e]] for a, b, c, e in itertools.product(range(p), repeat=4)]

    def roots_of(value):
        return [m for m in mats if mat_mul(m, m, p) == [[value, 0], [0, value]]]

    cross = [[f01, 0], [0, f01]]
    first, second = roots_of(f0), roots_of(f1)
    return sum(1 for a in first for b in second
               if [[(x + y) % p for x, y in zip(r1, r2)] for r1, r2 in
                   zip(mat_mul(a, b, p), mat_mul(b, a, p))] == cross)
