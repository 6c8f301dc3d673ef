"""Determinants, minors, resultants, gcds, squarefree parts, rational roots,
linear algebra."""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from oscurve import polyops
from oscurve.errors import DegenerateInputError
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
from oscurve.rings import PolyMatrix, PolyRing, Polynomial

from helpers import sylvester_resultant

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

    matrices = [[]]
    for n in range(1, 9):
        matrices.append([[rational() for _ in range(n)] for _ in range(n)])
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
        if n and all(a[i][j] == 0 for i in range(n) for j in range(i + 1)):
            assert characteristic_polynomial(a) == [0] * n + [1]
    assert characteristic_polynomial([]) == [1]


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
