import pytest
from hypothesis import Phase, settings

import cliffrep as cr
from cliffrep import clifford, linalg, polymat, ulrich

# A failing example is reported as drawn: shrinking a test that fails on
# every example can run for minutes before it prints anything.
settings.register_profile("no-shrink",
                          phases=[p for p in Phase if p is not Phase.shrink])
settings.load_profile("no-shrink")


def quadric_ring(field):
    return cr.PolyRing(field, 0, 4)


def paper_phi(ring):
    """The 2x2 matrix of linear forms [[y0, y1], [y2, y3]]."""
    return [[cr.parse_poly(s, ring) for s in row]
            for row in (("y0", "y1"), ("y2", "y3"))]


def paper_f(ring):
    return cr.parse_poly("y0*y3 - y1*y2", ring)


def block_quadric_rep(field):
    """The 4x4 block representation [[0, phi], [adj phi, 0]] of the quadric."""
    ring = quadric_ring(field)
    phi = paper_phi(ring)
    return cr.block_from_mf(cr.MFPair(phi, cr.adjugate(phi), paper_f(ring)))


def clock_rep(field, roots):
    ring = cr.PolyRing(field, 0, 2)
    return cr.clock_shift_rep(cr.SplitBinaryForm.from_roots(ring, roots))


def random_linear_matrix(ring, size, rng, coeff_bound=4):
    """A size x size matrix of random fiber-linear forms."""
    out = []
    for _ in range(size):
        row = []
        for _ in range(size):
            poly = ring.zero()
            for name in ring.names[:ring.fiber_count]:
                c = rng.randint(-coeff_bound, coeff_bound)
                if c:
                    poly = poly + ring.var(name).scale(ring.field.of(c))
            row.append(poly)
        out.append(row)
    return out


def random_invertible(field, size, rng):
    while True:
        mat = [[field.of(rng.randrange(field.p)) if field.kind == "GF"
                else field.of(rng.randint(-5, 5)) for _ in range(size)]
               for _ in range(size)]
        if linalg.det(field, mat):
            return mat


@pytest.fixture
def qq():
    return cr.rationals()


@pytest.fixture
def gf7():
    return cr.prime_field(7)


@pytest.fixture
def block_rep_qq(qq):
    return block_quadric_rep(qq)


@pytest.fixture
def block_rep_gf7(gf7):
    return block_quadric_rep(gf7)


@pytest.fixture
def clock3_gf7(gf7):
    return clock_rep(gf7, [1, 2, 4])


@pytest.fixture
def det_calls(monkeypatch):
    """Sizes of the symbolic determinants taken, wherever callers look it up."""
    sizes = []
    original = polymat.poly_matrix_det

    def counting(m):
        sizes.append(len(m))
        return original(m)

    for module in (polymat, clifford, ulrich):
        monkeypatch.setattr(module, "poly_matrix_det", counting)
    return sizes


@pytest.fixture
def evaluate_calls(monkeypatch):
    """One entry per ``Poly.evaluate`` call."""
    calls = []
    original = cr.Poly.evaluate

    def counting(self, assignment):
        calls.append(1)
        return original(self, assignment)

    monkeypatch.setattr(cr.Poly, "evaluate", counting)
    return calls
