import random
from fractions import Fraction

import pytest

import cliffrep as cr
from cliffrep import linalg
from cliffrep.errors import ShapeMismatch
from conftest import paper_f, paper_phi, quadric_ring


def test_det_of_paper_matrix(qq):
    ring = quadric_ring(qq)
    assert cr.poly_matrix_det(paper_phi(ring)) == paper_f(ring)


def test_det_identity(qq):
    ring = quadric_ring(qq)
    for k in (1, 2, 5, 7):
        assert cr.poly_matrix_det(cr.identity_matrix(ring, k)) == ring.one()


def test_det_block_antidiagonal(qq):
    # det [[0, phi], [adj phi, 0]] = det(phi) * det(adj phi) = f^2
    ring = quadric_ring(qq)
    phi = paper_phi(ring)
    adj = cr.adjugate(phi)
    block = cr.zero_matrix(ring, 4)
    for i in range(2):
        for j in range(2):
            block[i][2 + j] = phi[i][j]
            block[2 + i][j] = adj[i][j]
    f = paper_f(ring)
    assert cr.poly_matrix_det(block) == f * f


def test_det_rejects_nonsquare(qq):
    ring = quadric_ring(qq)
    with pytest.raises(ShapeMismatch):
        cr.poly_matrix_det([[ring.one(), ring.zero()]])


def test_det_multiplicative_on_scalars():
    ring = cr.PolyRing(cr.rationals(), 0, 1)
    rng = random.Random(7)
    for _ in range(60):
        a = [[ring.const(rng.randint(-5, 5)) for _ in range(3)] for _ in range(3)]
        b = [[ring.const(rng.randint(-5, 5)) for _ in range(3)] for _ in range(3)]
        lhs = cr.poly_matrix_det(cr.mat_mul(a, b))
        rhs = cr.poly_matrix_det(a) * cr.poly_matrix_det(b)
        assert lhs == rhs


@pytest.mark.parametrize("size", [4, 5, 7])
def test_det_matches_pointwise_determinant(size):
    # det(M) evaluated at a point equals the scalar determinant of M(point)
    ring = cr.PolyRing(cr.rationals(), 0, 2)
    rng = random.Random(size * 101)
    for _ in range(10):
        mat = []
        for _ in range(size):
            row = []
            for _ in range(size):
                poly = ring.const(rng.randint(-3, 3))
                for name in ("y0", "y1"):
                    c = rng.randint(-3, 3)
                    if c:
                        poly = poly + ring.var(name).scale(Fraction(c))
                row.append(poly)
            mat.append(row)
        det = cr.poly_matrix_det(mat)
        for _ in range(3):
            point = {"y0": rng.randint(-5, 5), "y1": rng.randint(-5, 5)}
            values = [[x.evaluate(point).constant() for x in row] for row in mat]
            assert det.evaluate(point).constant() == linalg.det(ring.field, values)


def test_adjugate_identity(qq):
    ring = quadric_ring(qq)
    phi = paper_phi(ring)
    prod = cr.mat_mul(cr.adjugate(phi), phi)
    assert cr.mat_eq(prod, cr.scalar_matrix(paper_f(ring), 2))
