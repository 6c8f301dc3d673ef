"""Determinants, minors, resultants, gcds, squarefree parts, rational roots,
linear algebra."""

import random
from fractions import Fraction
from functools import reduce
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from oscurve import polyops
from oscurve.census import multiple_point_matrix
from oscurve.errors import DegenerateInputError, ExtensionMismatchError
from oscurve.polyops import (
    PRIME,
    certify_squarefree_by_restriction,
    characteristic_polynomial,
    coprime_mod_prime,
    exact_divide,
    matrix_det,
    matrix_inverse,
    matrix_rank,
    nullspace,
    poly_gcd,
    poly_normalize,
    rational_roots,
    repeated_factor_part,
    squarefree_part,
)
from oscurve.qfields import QQ, QuadExt, QuadraticField
from oscurve.rational_curves import PlaneParameterization
from oscurve.rings import PolyMatrix, PolyRing, Polynomial

from helpers import (
    dense_row_echelon,
    field_characteristic_polynomial,
    field_matrix_inverse,
    field_nullspace,
    field_row_echelon,
    laplace_det,
    laplace_minors,
    sylvester_resultant,
)

R2 = PolyRing(("x", "y"))
R4 = PolyRing(("x", "y", "z", "w"))


def test_minors_2x2():
    M = PolyMatrix(R4, 2, 2, [R4.var("x"), R4.var("y"), R4.var("z"), R4.var("w")])
    assert M.minors(2) == [R4.parse("x*w - y*z")]


def test_minors_size_one_returns_entries():
    entries = [R2.parse(t) for t in ("x", "y", "x + y", "1")]
    M = PolyMatrix(R2, 2, 2, entries)
    assert M.minors(1) == entries


def test_minors_size_out_of_range():
    M = PolyMatrix(R2, 2, 2, [R2.one()] * 4)
    with pytest.raises(ValueError):
        M.minors(3)


def _random_linear_matrix(ring, size, rng):
    entries = []
    for _ in range(size * size):
        entries.append(
            ring.from_terms(
                {
                    (1, 0): Fraction(rng.randint(-3, 3)),
                    (0, 1): Fraction(rng.randint(-3, 3)),
                    (0, 0): Fraction(rng.randint(-3, 3)),
                }
            )
        )
    return PolyMatrix(ring, size, size, entries)


def test_det_agrees_with_cofactor_expansion():
    rng = random.Random(11)
    M = _random_linear_matrix(R2, 4, rng)
    det = matrix_det(M)
    for row in range(4):
        total = R2.zero()
        cols = [0, 1, 2, 3]
        for j in range(4):
            sub = [
                M.entry(i, c)
                for i in range(4)
                if i != row
                for c in cols
                if c != j
            ]
            minor = PolyMatrix(R2, 3, 3, sub).det()
            total = total + M.entry(row, j) * minor * ((-1) ** (row + j))
        assert total == det


# -- the determinant kernel against the Laplace reference and sympy ---------------

R3 = PolyRing(("x", "y", "z"))
WIDE = (1, 1, 3, 2**40 + 15, 10**30 + 57)


def _sympy_det(matrix):
    sympy = pytest.importorskip("sympy")
    rows = [
        [sympy.sympify(str(matrix.entry(i, j)).replace("^", "**")) for j in range(matrix.cols)]
        for i in range(matrix.rows)
    ]
    return sympy.expand(sympy.Matrix(rows).det(method="berkowitz"))


def _agrees_with_sympy(poly, expr):
    sympy = pytest.importorskip("sympy")
    return sympy.expand(sympy.sympify(str(poly).replace("^", "**")) - expr) == 0


@st.composite
def polynomial_matrices(draw, field=QQ, max_size=4):
    """Square matrices over QQ[x, y, z], or QQ(sqrt d)[x, y, z], with rows
    homogeneous or not, coefficients up to 2^80 over denominators up to
    10^30, and now and then a zero row or a zero column."""
    ring = PolyRing(R3.variables, field)
    size = draw(st.integers(1, max_size))
    coeff = st.builds(Fraction, st.integers(-(2**80), 2**80), st.sampled_from(WIDE))
    if field != QQ:
        irrational = st.sampled_from((0, 0, 1, -3)).map(Fraction)
        coeff = st.builds(QuadExt, coeff, irrational, st.just(field.d))
    entries = []
    for _ in range(size):
        homogeneous = draw(st.booleans())
        degree = draw(st.integers(0, 2))
        for _ in range(size):
            exps = draw(st.lists(st.tuples(*[st.integers(0, 2)] * 3), max_size=3))
            if homogeneous:
                exps = [e for e in exps if sum(e) == degree]
            entries.append(ring.from_terms({e: draw(coeff) for e in exps}))
    if draw(st.booleans()):
        row, col = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
        zero = ring.zero()
        if draw(st.booleans()):
            entries[row * size : (row + 1) * size] = [zero] * size
        else:
            entries[col::size] = [zero] * size
    return PolyMatrix(ring, size, size, entries)


@settings(max_examples=60, deadline=None)
@given(polynomial_matrices())
def test_det_agrees_with_the_laplace_reference(matrix):
    assert matrix_det(matrix) == laplace_det(matrix)


@pytest.mark.parametrize("field", [QuadraticField(2), QuadraticField(-1)], ids=str)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_det_over_a_quadratic_field_agrees_with_the_laplace_reference(field, data):
    matrix = data.draw(polynomial_matrices(field, max_size=3))
    assert matrix_det(matrix) == laplace_det(matrix)


@settings(max_examples=15, deadline=None)
@given(polynomial_matrices(max_size=3))
def test_det_agrees_with_sympy(matrix):
    assert _agrees_with_sympy(matrix_det(matrix), _sympy_det(matrix))


@pytest.mark.parametrize("d", [2, -1])
def test_det_over_a_quadratic_field_agrees_with_sympy(d):
    field = QuadraticField(d)
    ring = PolyRing(R3.variables, field)
    w = QuadExt(0, 1, d)
    x, y, z = ring.gens()
    half = QuadExt(Fraction(1, 2), Fraction(-1, 3), d)
    entries = [x * w, y + z * half, ring.one(), y * y * w, x * z, z * w, x, y * half, x * y + 1]
    matrix = PolyMatrix(ring, 3, 3, entries)
    assert matrix_det(matrix) == laplace_det(matrix)
    assert _agrees_with_sympy(matrix_det(matrix), _sympy_det(matrix))
    # sqrt(d) in all five rows: the packed w reaches w^5 = d^2 * w
    entries = [x * w + y * i if i == j else z * j for i in range(5) for j in range(5)]
    matrix = PolyMatrix(ring, 5, 5, entries)
    assert matrix_det(matrix) == laplace_det(matrix)
    entries = [x * w + 1 if i == j else ring.zero() for i in range(5) for j in range(5)]
    diagonal = PolyMatrix(ring, 5, 5, entries)
    assert matrix_det(diagonal) == (x * w + 1) ** 5


def test_det_swaps_in_a_row_for_a_zero_pivot():
    x, y, z = R3.gens()
    zero = R3.zero()
    assert matrix_det(PolyMatrix(R3, 2, 2, [zero, x, y, zero])) == -x * y
    # zero first pivot, and a zero pivot again after one elimination step
    matrix = PolyMatrix(R3, 3, 3, [zero, x, y, x, x, z, zero, zero, x + y])
    assert matrix_det(matrix) == laplace_det(matrix) == -x * x * (x + y)
    matrix = PolyMatrix(R3, 3, 3, [x, y, z, x * 2, y * 2, x, y, z, z])
    assert matrix_det(matrix) == laplace_det(matrix)


def test_det_of_one_by_one_matrices_is_the_entry():
    for text in ("0", "7/3", "x^2*y - 5/2*z + 1", "-x^3"):
        entry = R3.parse(text)
        assert matrix_det(PolyMatrix(R3, 1, 1, [entry])) == entry


@pytest.mark.parametrize("bits", [1, 2, 7, 61, 200])
def test_det_reads_back_coefficients_at_the_digit_edge(bits):
    # single-monomial entries make a determinant coefficient equal to the
    # bound, so it sits at +-(2^(k-1) - 1), the largest digit the packing
    # reads back; the anti-diagonal one also needs a row swap
    edge = 2**bits - 1
    x, y, z = R3.gens()
    zero = R3.zero()
    for entries, det in (
        ([x * edge], x * edge),
        ([x * -edge], x * -edge),
        ([x * y, zero, zero, z * -edge], x * y * z * -edge),
        ([zero, x * edge, y, zero], x * y * -edge),
        ([R3.const(edge)], R3.const(edge)),
    ):
        size = 1 if len(entries) == 1 else 2
        matrix = PolyMatrix(R3, size, size, entries)
        assert 2 ** (polyops._PackedMatrix(matrix).k - 1) - 1 == edge
        assert matrix_det(matrix) == det


@pytest.mark.parametrize("k", [2, 3])
def test_minors_of_the_census_matrices_match_the_laplace_reference(k):
    param = PlaneParameterization.parse(
        "s^6 + t^6; -s^5*t + 3*s*t^5 - s^3*t^3; 9*s^2*t^4 + s^4*t^2 - 1/7*s^3*t^3"
    )
    matrix = multiple_point_matrix(param, k)
    size = param.n - k + 3
    assert matrix.minors(size) == laplace_minors(matrix, size)


def test_prime_offsets_are_the_primes_below_two_to_the_sixty_one():
    below = (q for q in range(PRIME, 1, -1) if polyops._is_prime(q))
    assert tuple(2**61 - next(below) for _ in polyops._PRIME_OFFSETS) == polyops._PRIME_OFFSETS
    assert len(polyops._PRIME_OFFSETS) == 32


def test_sylvester_resultant_examples():
    # 2x2 determinant by hand: [[1, -x], [1, x]] -> 2x
    assert sylvester_resultant(R2.parse("y - x"), R2.parse("y + x"), "y") == R2.parse("2*x")
    assert sylvester_resultant(R2.parse("y^2 - x"), R2.parse("y^2 - x"), "y").is_zero
    S = PolyRing(("s", "t"))
    assert sylvester_resultant(S.parse("s*t - 1"), S.parse("t^2"), "t") == S.one()


def test_sylvester_rejects_degree_zero():
    with pytest.raises(DegenerateInputError):
        sylvester_resultant(R2.parse("x"), R2.parse("y"), "y")


def test_resultant_detects_common_factor():
    a = R2.parse("(y - x)*(y + 2)")
    b = R2.parse("(y - x)*(y - 3)")
    assert sylvester_resultant(a, b, "y").is_zero
    c = R2.parse("(y - x + 1)*(y - 3)")
    assert not sylvester_resultant(a, c, "y").is_zero


def test_squarefree_part_examples():
    u = PolyRing(("x",))
    assert squarefree_part(u.parse("(x - 1)^2*(x + 2)")) == u.parse("(x - 1)*(x + 2)")
    assert squarefree_part(u.parse("x^3")) == u.parse("x")
    f = u.parse("x^2 + 1")
    assert squarefree_part(f) == f
    with pytest.raises(DegenerateInputError):
        squarefree_part(u.zero())


def test_exact_divide():
    f = R2.parse("(x + y)*(x^2 - y)")
    assert exact_divide(f, R2.parse("x + y")) == R2.parse("x^2 - y")
    with pytest.raises(DegenerateInputError):
        exact_divide(R2.parse("x^2 + y"), R2.parse("x + y"))


def test_poly_gcd_multivariate():
    f = R2.parse("(x + y)^2*(x - y)")
    g = R2.parse("(x + y)*(x^2 + 1)")
    assert poly_gcd(f, g) == R2.parse("x + y")
    assert poly_gcd(R2.zero(), g) == poly_gcd(g, R2.zero())
    assert poly_gcd(R2.parse("2*x"), R2.parse("3*y")) == R2.one()


def test_repeated_factor_detection():
    F = PolyRing(("x0", "x1", "x2")).parse("(x1*x2 - x0^2)^2")
    assert repeated_factor_part(F).degree() > 0
    G = PolyRing(("x0", "x1", "x2")).parse("x1^2*x2 - x0^3")
    assert repeated_factor_part(G).degree() == 0


def test_repeated_factor_part_agrees_with_sympy():
    # seeded G*H^2*K and G*H*K against prod p^(e-1) over sympy's squarefree
    # decomposition, up to a constant
    sympy = pytest.importorskip("sympy")
    ring = PolyRing(("x0", "x1", "x2"))
    rng = random.Random(29)

    def random_poly(degree):
        terms = {}
        while not any(sum(e) == degree for e in terms):
            e = tuple(rng.randint(0, degree) for _ in range(3))
            if sum(e) <= degree:
                terms[e] = Fraction(rng.choice((-2, -1, 1, 2)))
        return Polynomial(ring, terms)

    squarefree_seen = 0
    for _ in range(6):
        G, H, K = (random_poly(rng.randint(1, 2)) for _ in range(3))
        for F in (G * H**2 * K, G * H * K):
            expected = sympy.Integer(1)
            for p, e in sympy.sqf_list(sympy.sympify(str(F).replace("^", "**")))[1]:
                expected *= p ** (e - 1)
            ours = sympy.sympify(str(repeated_factor_part(F)).replace("^", "**"))
            assert not sympy.cancel(ours / expected).free_symbols
            if expected == 1:
                squarefree_seen += 1
                assert repeated_factor_part(F).degree() == 0
    assert squarefree_seen


def test_squarefree_multivariate():
    f = R2.parse("(x^2 - y)^2*(x + y)")
    assert squarefree_part(f) == R2.parse("(x^2 - y)*(x + y)")


def test_certify_squarefree_by_restriction():
    assert certify_squarefree_by_restriction(R2.parse("x^2 - y^2 + x*y + 1"))
    assert not certify_squarefree_by_restriction(R2.parse("(x + y)^2"))


def test_rank_and_nullspace():
    rows = [[Fraction(1), Fraction(2), Fraction(3)], [Fraction(2), Fraction(4), Fraction(6)]]
    assert matrix_rank(rows) == 1
    basis = nullspace(rows, 3)
    assert len(basis) == 2
    for vec in basis:
        assert sum(a * b for a, b in zip(rows[0], vec)) == 0
    # over QQ(sqrt(2)): rank-nullity, and every basis vector is in the kernel
    K = QuadraticField(2)
    r2 = QuadExt(0, 1, 2)
    first = [K.one, r2, K.coerce(2), K.zero]
    second = [r2, K.coerce(2), 2 * r2, K.one]
    ext_rows = [first, second, [r2 * a + b for a, b in zip(first, second)]]
    basis = nullspace(ext_rows, 4, one=K.one)
    rank = matrix_rank(ext_rows)
    assert rank == 2 and rank + len(basis) == 4
    for vec in basis:
        for row in ext_rows:
            assert sum((a * b for a, b in zip(row, vec)), K.zero) == 0
    # A * A^-1 = I over QQ and over QQ(sqrt(2))
    rational = [[2, 1, 0], [1, -1, 3], [0, Fraction(1, 2), 1]]
    for field, A in (
        (QQ, [[Fraction(v) for v in row] for row in rational]),
        (K, [[K.one, r2, K.zero], [K.zero, K.one, r2], [r2, K.zero, K.coerce(3)]]),
    ):
        inv = matrix_inverse(A, field)
        for i in range(3):
            for j in range(3):
                entry = sum((A[i][k] * inv[k][j] for k in range(3)), field.zero)
                assert entry == (1 if i == j else 0)
    with pytest.raises(DegenerateInputError):
        matrix_inverse([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]], QQ)


def _field_rank(rows, ncols):
    """Rank by elimination over the field itself (`field_row_echelon`)."""
    return len(field_row_echelon([list(r) for r in rows], ncols))


@pytest.mark.parametrize("tags", [(2, 8), (-1,), (3, 12, 27), (2 * 1009**2, 2)])
def test_quadratic_rank_through_integer_pairs_matches_field_elimination(tags):
    rng = random.Random(sum(tags))
    for _ in range(25):
        nrows, ncols, inner = rng.randint(1, 5), rng.randint(1, 6), rng.randint(1, 4)

        def entry():
            return QuadExt(rng.randint(-3, 3), rng.randint(-2, 2) * rng.randint(0, 1), rng.choice(tags))

        # a product of an nrows x inner and an inner x ncols matrix has rank <= inner
        left = [[entry() for _ in range(inner)] for _ in range(nrows)]
        right = [[entry() for _ in range(ncols)] for _ in range(inner)]
        zero = QuadExt(0, 0, tags[0])
        rows = [
            [sum((a * right[k][j] for k, a in enumerate(row)), zero) for j in range(ncols)]
            for row in left
        ]
        for width in range(1, ncols + 1):
            prefix = [r[:width] for r in rows]
            assert matrix_rank(prefix) == _field_rank(prefix, width), (prefix, width)


@pytest.mark.parametrize("tags", [(), (-1,), (5,), (2, 8), (3, 12, 27)])
def test_kernels_and_inverses_match_field_elimination(tags):
    """The same vectors as the reduced echelon form over the field, printed
    the same.  Where the rows mix tags of one field, field arithmetic writes
    each entry over whichever tag its operations met first, so kernel
    entries are then printed over the field's own tag."""
    rng = random.Random(20 + sum(tags))
    field = QuadraticField(tags[0]) if tags else QQ
    mixed = len(tags) > 1

    def same(got, want, show=str):
        assert [list(v) for v in got] == [list(v) for v in want]
        assert [list(map(show, v)) for v in got] == [list(map(show, v)) for v in want]

    def entry():
        a = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        return QuadExt(a, rng.randint(-2, 2) * rng.randint(0, 1), rng.choice(tags)) if tags else a

    def product(nrows, inner, ncols):
        """A matrix of rank <= inner, with a zero row now and then."""
        left = [[entry() for _ in range(inner)] for _ in range(nrows)]
        right = [[entry() for _ in range(ncols)] for _ in range(inner)]
        rows = [
            [sum((a * right[k][j] for k, a in enumerate(row)), field.zero) for j in range(ncols)]
            for row in left
        ]
        return [r if rng.random() > 0.15 else [field.zero] * ncols for r in rows]

    for ncols in range(1, 4):
        same(nullspace([], ncols, one=field.one), field_nullspace([], ncols, one=field.one))
    for _ in range(40):  # more rows than columns about half of the time
        ncols = rng.randint(1, 5)
        rows = product(rng.randint(1, 7), rng.randint(0, 4), ncols)
        want = field_nullspace(rows, ncols, one=field.one)
        same(nullspace(rows, ncols, one=field.one), want, (lambda c: str(field.coerce(c))) if mixed else str)
    singular = 0
    for _ in range(40):
        n = rng.randint(1, 4)
        square = product(n, n - rng.randint(0, 1), n)
        try:
            want = field_matrix_inverse(square, field)
        except DegenerateInputError:
            singular += 1
            with pytest.raises(DegenerateInputError):
                matrix_inverse(square, field)
            continue
        same(matrix_inverse(square, field), want)
    assert 0 < singular < 40


def sparse_and_dense_rows(rng, nrows, ncols):
    """Integer rows, about half of them with 2-3 entries (the oracle's rows
    m*g of a three-term witness), the rest dense; the entries are mostly
    +-1, as a witness's leading coefficient is, with a few large ones."""
    rows = []
    for _ in range(nrows):
        if rng.random() < 0.5:
            row = [0] * ncols
            for k in rng.sample(range(ncols), min(ncols, rng.randint(2, 3))):
                row[k] = rng.choice((1, -1, 1, -1, 2, -64, rng.randint(-(10**6), 10**6)))
        else:
            row = [rng.choice((0, rng.randint(-40, 40))) for _ in range(ncols)]
        rows.append(row)
    return rows


@pytest.mark.parametrize("seed", range(6))
def test_sparse_pivot_steps_leave_the_rows_and_pivots_of_dense_steps(seed):
    rng = random.Random(seed)
    for _ in range(60):
        ncols = rng.randint(1, 50)
        rows = sparse_and_dense_rows(rng, rng.randint(1, 40), ncols)
        # a column range from the first column on, or starting where the rows vanish
        start = rng.choice((0, rng.randrange(ncols)))
        rows = [[0] * start + r[start:] for r in rows]
        cols = range(start, rng.randint(start, ncols))
        mine, dense = [list(r) for r in rows], [list(r) for r in rows]
        assert polyops._row_echelon(mine, cols) == dense_row_echelon(dense, cols)
        assert mine == dense


def test_rank_refuses_rows_that_mix_two_fields():
    r2, r3 = QuadExt(0, 1, 2), QuadExt(0, 1, 3)
    for rows in ([[r2, r3]], [[r2, 1], [r3, 1]], [[1, 0], [QuadExt(1, 1, 8), r3]]):
        with pytest.raises(ExtensionMismatchError):
            matrix_rank(rows)
    # tags naming one field combine: sqrt(8) = 2*sqrt(2)
    assert matrix_rank([[QuadExt(0, 1, 8), 2], [2, QuadExt(0, 1, 2)]]) == 1


@pytest.mark.parametrize("field", [QQ, QuadraticField(2)], ids=["QQ", "QQ(sqrt2)"])
def test_univariate_gcd_of_degree_fifteen_with_a_known_factor(field):
    # a degree-30 pair finishes at once only when every remainder of the
    # sequence is made primitive
    rng = random.Random(11)
    u = PolyRing(("x",), field)

    def random_poly(deg):
        coeffs = {(k,): field.coerce(rng.randint(-9, 9)) for k in range(deg)}
        if isinstance(field, QuadraticField):
            coeffs = {e: c + QuadExt(0, rng.randint(-3, 3), 2) for e, c in coeffs.items()}
        coeffs[(deg,)] = field.coerce(rng.randint(1, 9))
        return u.from_terms(coeffs)

    g, h1, h2 = random_poly(15), random_poly(15), random_poly(14)
    assert poly_gcd(h1, h2) == u.one()
    assert poly_gcd(g * h1, g * h2) == poly_normalize(g)


def _divisor_search_roots(g):
    """Reference: the rational roots of a univariate g over QQ by trying every
    +-u/q with u | f_0 and q | f_d, the divisor search the census used."""
    coeffs = {sum(e): c for e, c in g.terms.items()}
    den = lcm(*(c.denominator for c in coeffs.values()))
    f = [int(coeffs.get(i, 0) * den) for i in range(max(coeffs) + 1)]
    roots = {Fraction(0)} if f[0] == 0 else set()
    f = f[next(i for i, c in enumerate(f) if c) :]

    def divisors(n):
        n, out, d = abs(n), set(), 1
        while d * d <= n:
            if n % d == 0:
                out.update((d, n // d))
            d += 1
        return out

    for u in divisors(f[0]):
        for q in divisors(f[-1]):
            for cand in (Fraction(u, q), Fraction(-u, q)):
                if sum(c * cand**i for i, c in enumerate(f)) == 0:
                    roots.add(cand)
    return sorted(roots)


def _planted_root_polynomial(rng, u, degree, height):
    """A seeded product of factors (q*x - p), some repeated and some at 0,
    with |p|, q <= height^(1/degree) so that the coefficients stay near
    `height`, times a cofactor with no rational root and a non-integral
    constant; returns it with its planted roots."""
    x = u.var("x")
    cofactors = ("1", "x^2 + 2", "(x^2 + 2)^2", "3*x^2 + 5", "x^3 - 2", "x^4 + 1")
    cofactor = u.parse(rng.choice(cofactors))
    if cofactor.degree() >= degree:
        cofactor = u.one()
    f = cofactor * x ** rng.choice((0, 0, 1, 2))
    roots = {Fraction(0)} if f.degree() > cofactor.degree() else set()
    bound = max(2, round(height ** (1 / degree)))
    while f.degree() < degree:
        r = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        factor = x * r.denominator - u.const(r.numerator)
        f = f * (factor**2 if rng.random() < 0.2 and f.degree() + 2 <= degree else factor)
        roots.add(r)
    return f * Fraction(rng.randint(1, 99), rng.randint(1, 7)), sorted(roots)


def test_rational_roots_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(17)
    u = PolyRing(("x",))
    tallest = 0
    for trial in range(36):
        height = (10**3, 10**12, 10**30)[trial % 3]
        degree = 21 if trial < 6 else rng.randint(1, 21)
        f, planted = _planted_root_polynomial(rng, u, degree, height)
        tallest = max(tallest, *(abs(c) for c in f.terms.values()))
        theirs = sympy.Poly(sympy.sympify(str(f).replace("^", "**")), sympy.Symbol("x"))
        expected = sorted(Fraction(int(r.p), int(r.q)) for r in theirs.ground_roots())
        assert rational_roots(f) == planted == expected
    assert tallest > 10**26


def test_rational_roots_agree_with_divisor_search():
    rng = random.Random(23)
    u = PolyRing(("x",))
    for _ in range(60):
        f, planted = _planted_root_polynomial(rng, u, rng.randint(1, 6), 10)
        assert rational_roots(f) == planted == _divisor_search_roots(f)


def test_rational_roots_edge_cases():
    u = PolyRing(("x",))
    assert rational_roots(u.parse("7")) == []
    assert rational_roots(u.parse("x^5")) == [0]
    assert rational_roots(u.parse("x^2 - 2")) == []
    assert rational_roots(u.parse("(2*x - 1)^3*(x^2 + 2)^2")) == [Fraction(1, 2)]
    # 1 and 4 meet mod 3, so the squarefree (x - 1)(x - 4) passes over p = 3
    assert rational_roots(u.parse("(x - 1)*(x - 4)")) == [1, 4]
    with pytest.raises(DegenerateInputError):
        rational_roots(u.zero())
    with pytest.raises(DegenerateInputError):
        rational_roots(R2.parse("x - y"))


def test_univariate_poly_gcd_agrees_with_sympy():
    # seeded A*G and B*G with a planted G, against sympy.gcd up to a constant
    sympy = pytest.importorskip("sympy")
    rng = random.Random(31)
    u = PolyRing(("x",))

    def random_poly(deg):
        coeffs = {(k,): Fraction(rng.randint(-20, 20), rng.randint(1, 5)) for k in range(deg)}
        coeffs[(deg,)] = Fraction(rng.choice((-3, -1, 1, 2, 7)), rng.randint(1, 5))
        return u.from_terms(coeffs)

    for _ in range(16):
        G, A, B = (random_poly(rng.randint(lo, 8)) for lo in (0, 1, 1))
        ours = poly_gcd(A * G, B * G)
        assert ours == poly_normalize(ours)
        exact_divide(ours, G)  # raises unless G divides the gcd
        theirs = sympy.gcd(*(sympy.sympify(str(p).replace("^", "**")) for p in (A * G, B * G)))
        assert not sympy.cancel(sympy.sympify(str(ours).replace("^", "**")) / theirs).free_symbols


def test_characteristic_polynomial_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(10)

    def rational():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 5)) if rng.random() < 0.7 else Fraction(0)

    def move(a):
        # a similar matrix: P * a * P^-1 for a unit upper triangular P
        n = len(a)
        p = [
            [Fraction(1 if i == j else rng.randint(-2, 2) if j > i else 0) for j in range(n)]
            for i in range(n)
        ]
        p_inv = matrix_inverse(p, QQ)
        pa = [[sum(p[i][k] * a[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        return [[sum(pa[i][k] * p_inv[k][j] for k in range(n)) for j in range(n)] for i in range(n)]

    def wide():
        # numerators up to 10^20 over three denominators near 10^20: the
        # scaled integer matrix and its bound run to thousands of bits
        return Fraction(rng.randint(-(10**20), 10**20), rng.choice(WIDE_DENOMINATORS))

    matrices = [[], [[wide()]], [[Fraction(0)]], [[Fraction(0)] * 5 for _ in range(5)]]
    for n in range(1, 9):
        matrices.append([[rational() for _ in range(n)] for _ in range(n)])
        matrices.append([[wide() for _ in range(n)] for _ in range(n)])
        # zero columns and unit columns, with wide denominators in the others
        mixed = [[wide() for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if j % 3 == 0:
                    mixed[i][j] = Fraction(0)
                elif j % 3 == 1:
                    mixed[i][j] = Fraction(int(i == j + 1))
        matrices.append(mixed)
        # zero subdiagonal: block upper triangular, the blocks' polynomials multiply
        block = [[rational() for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i // 2 * 2):
                block[i][j] = Fraction(0)
        matrices.append(block)
        # nilpotent: strictly upper triangular, then moved by a similarity
        strict = [[rational() if j > i else Fraction(0) for j in range(n)] for i in range(n)]
        matrices.extend([strict, move(strict)])
    for a in matrices:
        n = len(a)
        entries = [sympy.Rational(c.numerator, c.denominator) for r in a for c in r]
        coeffs = sympy.Matrix(n, n, entries).charpoly().all_coeffs()[::-1]
        assert characteristic_polynomial(a) == [Fraction(str(c)) for c in coeffs]
        assert characteristic_polynomial(a) == field_characteristic_polynomial(a)
        if n and all(a[i][j] == 0 for i in range(n) for j in range(i + 1)):
            assert characteristic_polynomial(a) == [0] * n + [1]
    assert characteristic_polynomial([]) == [1]


def _count_primes(monkeypatch):
    """The primes that `characteristic_polynomial` reduces modulo, in order."""
    used = []
    kernel = polyops._hessenberg_mod_prime

    def counting(rows, p):
        used.append(p)
        return kernel(rows, p)

    monkeypatch.setattr(polyops, "_hessenberg_mod_prime", counting)
    return used


WIDE_DENOMINATORS = (10**20 + 39, 3**41, 2**66)


def _random_rational_matrix(rng, n, height):
    return [
        [Fraction(rng.randint(-height, height), rng.choice(WIDE_DENOMINATORS)) for _ in range(n)]
        for _ in range(n)
    ]


@pytest.mark.parametrize("tags", [(2, 8), (-1,), (3, 12, 27)])
def test_characteristic_polynomial_over_a_quadratic_field_matches_the_field_route(tags):
    rng = random.Random(sum(tags))

    def entry():
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        return QuadExt(a, rng.randint(-2, 2), rng.choice(tags))

    for n in range(1, 7):
        a = [[entry() for _ in range(n)] for _ in range(n)]
        assert characteristic_polynomial(a) == field_characteristic_polynomial(a)


def test_characteristic_polynomial_takes_the_primes_its_bound_asks_for(monkeypatch):
    from math import isqrt, prod

    used = _count_primes(monkeypatch)
    rng = random.Random(12)
    matrices = [
        _random_rational_matrix(rng, n, height)
        for n, height in [(0, 1), (1, 0), (3, 10), (6, 10**6), (12, 10**15), (20, 3), (24, 0)]
    ]
    # PRIME and the next prime divide the column denominators: both are skipped
    wide = _random_rational_matrix(rng, 5, 10**9)
    skipping = [
        [c / (PRIME * polyops._PRIMES[1]) if j == 2 else c for j, c in enumerate(r)] for r in wide
    ]
    matrices.append(skipping)
    # unit columns, as in a multiplication matrix, next to one dense column
    unit = [[Fraction(int(i == j + 1)) for j in range(7)] + [wide[i % 5][0]] for i in range(8)]
    matrices.append(unit)
    for a in matrices:
        n = len(a)
        del used[:]
        chi = characteristic_polynomial(a)
        if n <= 12:  # the field route takes seconds at n = 20
            assert chi == field_characteristic_polynomial(a)
        # Hadamard on the columns of (T*I - A)*diag(d_j) at |T| = 1
        dens = [lcm(*(a[i][j].denominator for i in range(n))) for j in range(n)]
        norms = [sum((a[i][j] * dens[j]) ** 2 for i in range(n)) for j in range(n)]
        bound = prod(d + isqrt(int(s)) + 1 for d, s in zip(dens, norms))
        expected, product = [], 1
        for p in polyops._PRIMES:
            if product > 2 * bound:
                break
            if prod(dens) % p:
                expected.append(p)
                product *= p
        assert used == expected and (PRIME not in used) == (a is skipping)
    assert len(polyops._PRIMES) > 10 and polyops._PRIMES[0] == PRIME


def test_characteristic_polynomial_combines_many_small_primes(monkeypatch):
    # the list restarted at 2^13 - 1 grows downward through the small primes
    monkeypatch.setattr(polyops, "_PRIMES", [2**13 - 1])
    used = _count_primes(monkeypatch)
    rng = random.Random(13)
    for n in (2, 5, 9):
        a = _random_rational_matrix(rng, n, 10**20)
        assert characteristic_polynomial(a) == field_characteristic_polynomial(a)
    assert len(used) > 200 and max(used) < 2**13
    below = range(2**13 - 1, min(used) - 1, -1)
    assert polyops._PRIMES == [q for q in below if polyops._is_prime(q)]
    trial = [q for q in range(2000) if q > 1 and all(q % d for d in range(2, q))]
    assert [q for q in range(2000) if polyops._is_prime(q)] == trial
    # strong pseudoprimes to the first bases, and Carmichael numbers
    composites = (2047, 1373653, 25326001, 3215031751, 561, 41041, PRIME * 3)
    assert not any(map(polyops._is_prime, composites))


# -- the prime-field certificate behind poly_gcd -------------------------------------

U1 = PolyRing(("x",))
ST = PolyRing(("s", "t"))


@pytest.mark.parametrize(
    "ring, p, q, expected",
    [
        # coprime over QQ, but both reduce to x mod PRIME
        (U1, "x", f"x - {PRIME}", "1"),
        # the shared factor's leading coefficient vanishes mod PRIME, where the
        # reductions x + 2 and x + 3 are coprime
        (U1, f"({PRIME}*x + 1)*(x + 2)", f"({PRIME}*x + 1)*(x + 3)", f"{PRIME}*x + 1"),
        # PRIME in a denominator: nothing to reduce
        (U1, f"(x + 1/{PRIME})*(x + 2)", f"(x + 1/{PRIME})*(x + 3)", f"{PRIME}*x + 1"),
        (U1, f"2*x^2 + 1/{PRIME}", "x^3 + x", "1"),
        # binary forms sharing t^k, a factor at (1 : 0), next to an affine one
        (ST, "t^2*s*(s + t)", "t^3*(s - t)", "t^2"),
        (ST, "t*(s - t)*s", "(s - t)*t^2*(s + 2*t)", "s*t - t^2"),
        (ST, "s*t", "s*t + t^2", "t"),
        (ST, "s^2", "t^3", "1"),
        (ST, f"t*(s - {PRIME}*t)", "t*s", "t"),
        (ST, f"({PRIME}*s + t)*(s + 2*t)", f"({PRIME}*s + t)*(s + 3*t)*t", f"{PRIME}*s + t"),
    ],
)
def test_poly_gcd_shortcuts_return_the_exact_gcd(ring, p, q, expected):
    p, q = ring.parse(p), ring.parse(q)
    assert poly_gcd(p, q) == poly_gcd(q, p) == ring.parse(expected)


def test_coprime_mod_prime_is_one_sided():
    x = U1.var("x")
    assert coprime_mod_prime(x**2 + 1, x + 3)
    # each of these is coprime over QQ, but the certificate does not apply
    assert not coprime_mod_prime(x, x - PRIME)
    assert not coprime_mod_prime(x**2 * PRIME + 1, x + 3)
    assert not coprime_mod_prime(x**2 + Fraction(1, PRIME), x + 3)
    assert not coprime_mod_prime(*(p.restrict(PolyRing(("x",), QuadraticField(2))) for p in (x, x + 1)))


def _sympy_gcd_agrees(p, q, sympy):
    ours = poly_gcd(p, q)
    assert ours == poly_normalize(ours)
    theirs = sympy.gcd(*(sympy.sympify(str(f).replace("^", "**")) for f in (p, q)))
    assert not sympy.cancel(sympy.sympify(str(ours).replace("^", "**")) / theirs).free_symbols


small_coefficients = st.lists(
    st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 1, 1, 2, 3))), min_size=1, max_size=4
)


@pytest.mark.parametrize("prime", [PRIME, 2, 3])
@settings(max_examples=40, deadline=None)
@given(a=small_coefficients, b=small_coefficients, g=small_coefficients, binary=st.booleans())
def test_poly_gcd_agrees_with_sympy_on_small_inputs(prime, a, b, g, binary):
    # A*G and B*G for univariate polynomials or binary forms; the small primes
    # make every shortcut meet denominators and leading coefficients they
    # divide, and pairs coprime over QQ but not modulo them
    sympy = pytest.importorskip("sympy")
    if binary:
        ring = ST

        def build(cs):
            return ring.from_terms({(len(cs) - 1 - i, i): c for i, c in enumerate(cs)})

    else:
        ring = U1

        def build(cs):
            return ring.from_terms({(i,): c for i, c in enumerate(cs)})

    G = build(g)
    p, q = build(a) * G, build(b) * G
    if p.is_zero and q.is_zero:
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(polyops, "PRIME", prime)
        _sympy_gcd_agrees(p, q, sympy)


# -- the prime-field kernels at any prime ----------------------------------------

rational_lists = st.lists(
    st.builds(Fraction, st.integers(-30, 30), st.sampled_from((1, 1, 2, 3, 5))), min_size=0, max_size=6
)


def _sympy_mod(coefficients, p, sympy):
    return sympy.Poly(coefficients or [0], sympy.Symbol("x"), modulus=p)


def _residue_list(poly, p):
    """sympy's coefficients as the kernels' lists: nonnegative, no leading zeros."""
    out = [c % p for c in poly.all_coeffs()]
    return out[next((i for i, c in enumerate(out) if c), len(out)) :]


@pytest.mark.parametrize("prime", [polyops._PRIMES[1], 3])
@settings(max_examples=60, deadline=None)
@given(a=rational_lists, b=rational_lists)
def test_gcd_and_product_mod_any_prime_agree_with_sympy(prime, a, b):
    # residues taken mod a prime other than PRIME, and the arithmetic mod that
    # same prime: no kernel may mix in PRIME
    sympy = pytest.importorskip("sympy")
    f, g = polyops.residues_mod_prime(a, prime), polyops.residues_mod_prime(b, prime)
    if f is None or g is None:
        return
    F, G = _sympy_mod(f, prime, sympy), _sympy_mod(g, prime, sympy)
    assert polyops.gcd_mod_prime(f, g, prime) == _residue_list(sympy.gcd(F, G), prime)
    if f and g:
        product = polyops.mul_mod_prime(f, g, prime)
        assert len(product) == len(f) + len(g) - 1
        assert _residue_list(_sympy_mod(product, prime, sympy), prime) == _residue_list(F * G, prime)


@pytest.mark.parametrize("prime", [2, 3, polyops._PRIMES[1], PRIME])
@settings(max_examples=60, deadline=None)
@given(values=rational_lists)
def test_residues_mod_prime_agree_with_fractions(prime, values):
    residues = polyops.residues_mod_prime(values, prime)
    if any(c.denominator % prime == 0 for c in values):
        assert residues is None
        return
    assert len(residues) == len(values)
    for c, r in zip(values, residues):
        assert 0 <= r < prime
        assert (c - r) * c.denominator % prime == 0


@pytest.mark.parametrize("prime", [2, 3, PRIME])
@settings(max_examples=60, deadline=None)
@given(
    factors=st.lists(rational_lists, min_size=1, max_size=4),
    shared=st.lists(st.builds(Fraction, st.integers(-5, 5), st.sampled_from((1, 2, 3))), max_size=3),
)
def test_coprime_residues_never_certifies_a_common_root(prime, factors, shared):
    # A_i*G for a shared G: whenever the certificate holds, the gcd over QQ
    # must be constant, however the prime meets leads and denominators
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    G = sympy.Poly(shared or [1], x, domain="QQ")
    polys = [sympy.Poly(a or [0], x, domain="QQ") * G for a in factors]
    lists = [polyops.residues_mod_prime([Fraction(int(c.p), int(c.q)) for c in f.all_coeffs()], prime) for f in polys]
    if None in lists:
        return
    if polyops.coprime_residues(lists, prime):
        assert reduce(sympy.gcd, polys).degree() <= 0, polys


def test_coprime_residues_needs_a_kept_lead():
    # x^2 + 1 and x + 3, then a constant: coprime
    assert polyops.coprime_residues([[1, 0, 1], [1, 3]], PRIME)
    assert polyops.coprime_residues([[5]], PRIME)
    # lists whose leads vanish mod p prove nothing, even with a constant gcd
    assert not polyops.coprime_residues([[0, 1], [0, 0, 2]], PRIME)
    # a common root, and zero lists
    assert not polyops.coprime_residues([[1, 1], [1, 0, -1 % PRIME]], PRIME)
    assert not polyops.coprime_residues([[], [0, 0]], PRIME)
