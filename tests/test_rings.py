"""Polynomial core: parsing, printing, arithmetic, substitution, coordinate
changes, orders of vanishing."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oscurve.errors import DegenerateInputError, ExtensionMismatchError, ParseError, RingMismatchError
from oscurve.qfields import QQ, QuadExt, QuadraticField
from oscurve.rings import INF, PolyRing, Polynomial, parse_poly

from helpers import reference_parse_poly

R2 = PolyRing(("x", "y"))
R3 = PolyRing(("x0", "x1", "x2"))


def poly(text, ring=R2):
    return ring.parse(text)


# -- parsing / printing -------------------------------------------------------


def test_parse_oscnode_quartic():
    f = poly("y^2 - 2*x^2*y + x^4 + x^2*y^2")
    assert f.terms == {
        (0, 2): Fraction(1),
        (2, 1): Fraction(-2),
        (4, 0): Fraction(1),
        (2, 2): Fraction(1),
    }


def test_parse_zero_and_cancellation():
    assert poly("0").is_zero
    assert poly("(x+y)^2 - x^2 - 2*x*y - y^2").is_zero


def test_parse_rational_literals():
    f = poly("9/28*x - 1/2")
    assert f.terms == {(1, 0): Fraction(9, 28), (0, 0): Fraction(-1, 2)}


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        poly("x + q")
    assert err.value.position == 4
    with pytest.raises(ParseError):
        poly("2x")  # implicit multiplication is not allowed
    with pytest.raises(ParseError):
        poly("x + ")
    with pytest.raises(ParseError):
        poly("x ^ y")


def random_expression(rng, names, depth, root=None):
    """A random text of the grammar: sums, products and powers of nested
    parentheses, unary minus, integer and rational literals, variables, and
    sqrt(root) when a root is given."""
    if depth == 0 or rng.random() < 0.15:
        atoms = [str(rng.randint(0, 12)), f"{rng.randint(0, 30)}/{rng.randint(1, 9)}", rng.choice(names)]
        if root is not None:
            atoms.append(f"sqrt({root})")
        atom = rng.choice(atoms)
        return "-" + atom if rng.random() < 0.15 else atom
    kind = rng.randrange(4)
    if kind == 0:
        parts = [random_expression(rng, names, depth - 1, root) for _ in range(rng.randint(2, 4))]
        text = parts[0] + "".join(rng.choice((" + ", " - ")) + p for p in parts[1:])
        return f"({text})" if rng.random() < 0.8 else f"-({text})"
    if kind == 1:
        return "*".join(random_expression(rng, names, depth - 1, root) for _ in range(rng.randint(2, 3)))
    if kind == 2:
        return f"({random_expression(rng, names, depth - 1, root)})^{rng.randint(0, 3)}"
    return f"(({random_expression(rng, names, depth - 1, root)}))"


def parse_outcome(parse, text, ring):
    """The parse as (terms, coefficient types), or the error's type, text and
    position (a mismatched sqrt literal is refused by the field)."""
    try:
        p = parse(text, ring)
    except (ParseError, ExtensionMismatchError) as err:
        return type(err), str(err), getattr(err, "position", None)
    return p.terms, {e: type(c) for e, c in p.terms.items()}


SQRT5_RING = PolyRing(("x", "y"), QuadraticField(5))


@pytest.mark.parametrize("ring, root", [(R2, None), (R3, None), (SQRT5_RING, 5), (SQRT5_RING, "20/9")])
def test_parser_matches_the_polynomial_building_reference(ring, root):
    rng = random.Random(11)
    for _ in range(150):
        text = random_expression(rng, ring.variables, 5, root)
        assert parse_outcome(parse_poly, text, ring) == parse_outcome(reference_parse_poly, text, ring), text


# +-1 matrices of nonzero determinant, as the benchmark moves its normal forms
SIGN_MATRICES = [((1, 1, -1), (1, -1, 1), (-1, 1, 1)), ((1, -1, -1), (-1, -1, 1), (1, 1, 1))]


@pytest.mark.parametrize("m", SIGN_MATRICES)
@pytest.mark.parametrize("form", ["x1^2*x2^10 - x0^12", "x1^2*x2^11 - x0^13", "x1^2*x2 - x0^2*x2 + x0^3"])
def test_parser_matches_the_reference_on_moved_normal_forms(m, form):
    moved = str(R3.parse(form).linear_change(m))
    assert parse_outcome(parse_poly, moved, R3) == parse_outcome(reference_parse_poly, moved, R3)
    if form == "x1^2*x2^11 - x0^13":
        assert len(R3.parse(moved).terms) >= 90


@pytest.mark.parametrize("ring, root", [(R2, None), (SQRT5_RING, 5)])
def test_parser_errors_match_the_reference(ring, root):
    rng = random.Random(17)
    noise = "+-*^()/, 0123xyzq$."
    for _ in range(400):
        text = list(random_expression(rng, ring.variables, 3, root))
        for _ in range(rng.randint(1, 3)):
            k = rng.randrange(len(text) + 1)
            if rng.random() < 0.5 and k < len(text):
                del text[k]
            else:
                text.insert(k, rng.choice(noise))
        text = "".join(text)
        assert parse_outcome(parse_poly, text, ring) == parse_outcome(reference_parse_poly, text, ring), text
    for text in ("", "x +", "2x", "x ^ y", "1/0", "x**2", "sqrt(2)", "(x", "x)", "x + q", "#", "x_1", "é", "½*x", "x + ٣"):
        assert parse_outcome(parse_poly, text, R2) == parse_outcome(reference_parse_poly, text, R2), text


@pytest.mark.parametrize("text, position", [("x^²", 2), ("2²", 1)])
def test_a_digit_that_is_not_decimal_is_an_unexpected_character(text, position):
    # the reference parser's tokenizer takes it for a digit and fails in int()
    with pytest.raises(ParseError, match="unexpected character '²'") as err:
        R2.parse(text)
    assert err.value.position == position


def test_print_round_trips():
    for text in ("x^4 + x^2*y^2 - 2*x^2*y + y^2", "-x + 1/3", "0", "x*y - 2"):
        f = poly(text)
        assert str(f) == text
        assert poly(str(f)) == f


def test_print_quadext_coefficients():
    ring = PolyRing(("x",), QuadraticField(-1))
    f = ring.parse("x^2 - sqrt(-1)*x^3")
    assert str(f) == "-sqrt(-1)*x^3 + x^2"
    assert ring.parse(str(f)) == f


# -- arithmetic ---------------------------------------------------------------


def test_product_of_conjugate_conics():
    assert poly("y - x^2") * poly("y + x^2") == poly("y^2 - x^4")


def test_multiplication_by_zero():
    assert (poly("x^3 - y") * poly("0")).is_zero


def test_ring_mismatch_raises():
    with pytest.raises(RingMismatchError):
        poly("x") + R3.parse("x0")


def test_power():
    assert poly("x + y") ** 3 == poly("x^3 + 3*x^2*y + 3*x*y^2 + y^3")
    assert poly("x") ** 0 == R2.one()


small_polys = st.builds(
    lambda terms: R2.from_terms(
        {(e1, e2): c for (e1, e2, c) in terms}
    ),
    st.lists(
        st.tuples(
            st.integers(0, 3),
            st.integers(0, 3),
            st.fractions(min_value=-5, max_value=5, max_denominator=4),
        ),
        max_size=5,
    ),
)


@given(small_polys, small_polys, small_polys)
@settings(max_examples=50)
def test_ring_laws(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h
    assert (f * g) * h == f * (g * h)


# -- substitution -------------------------------------------------------------


def test_substitute_kills_y():
    f = poly("y^2 - x^5")
    assert f.substitute({"y": R2.zero()}) == poly("-x^5")


def test_substitute_conic_into_quartic():
    # hand expansion: contact of order six with the osculating conic
    f = poly("y^2 - 2*x^2*y + x^4 + x^2*y^2")
    assert f.substitute({"y": poly("x^2")}) == poly("x^6")


def test_substitute_identity():
    f = poly("x^3*y - 2*y^2 + x")
    assert f.substitute({"y": R2.var("y")}) == f


@given(small_polys, small_polys, small_polys)
@settings(max_examples=30)
def test_substitute_is_a_ring_homomorphism(f, g, p):
    image = {"y": p}
    assert (f * g).substitute(image) == f.substitute(image) * g.substitute(image)
    assert (f + g).substitute(image) == f.substitute(image) + g.substitute(image)


# -- linear changes -----------------------------------------------------------


def test_linear_change_swap():
    F = R3.parse("x0^2*x2")
    swapped = F.linear_change([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert swapped == R3.parse("x1^2*x2")


def test_linear_change_identity():
    F = R3.parse("x0^3 - x1*x2^2")
    assert F.linear_change([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == F


def test_linear_change_moves_point():
    # move [1,0,0] to [0,0,1]: the transformed curve vanishes there
    F = R3.parse("x0*x1^2 - x2^3 + x1*x2^2")
    assert F.evaluate((1, 0, 0)) == 0
    M = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    moved = F.linear_change(M)
    assert moved.evaluate((0, 0, 1)) == 0


def test_linear_change_rejects_singular_matrix():
    with pytest.raises(DegenerateInputError):
        R3.parse("x0").linear_change([[1, 0, 0], [1, 0, 0], [0, 0, 1]])


def test_linear_change_rejects_a_singular_matrix_each_time():
    # the invertibility of a matrix is remembered; a singular one still refuses
    singular = [[1, 0, 0], [2, 0, 0], [0, 0, 1]]
    for f in (R3.parse("x0"), R3.parse("x1 + x2")):
        with pytest.raises(DegenerateInputError):
            f.linear_change(singular)


def test_moving_many_polynomials_checks_each_matrix_once(monkeypatch):
    from oscurve import polyops, rings
    from oscurve.groebner import Ideal, ideal_power, ideal_sum
    from oscurve.polyops import matrix_inverse
    from oscurve.rational_curves import rational_normal_curve_ideal

    ranked = []
    rank = polyops.matrix_rank

    def counting(rows):
        ranked.append(rows)
        return rank(rows)

    # the 85 generators of the sextic's fourth-order contact scheme, moved
    # by g -> g - a, which makes a + g the last coordinate, and back
    amb = PolyRing(tuple("abcdefg"))
    through = Ideal(amb, [amb.var(v) for v in "bcdef"])
    fat = ideal_sum(ideal_power(through, 4), rational_normal_curve_ideal(6, amb.variables))
    matrix = tuple(
        tuple(Fraction(-1) if (i, j) == (6, 0) else Fraction(int(i == j)) for j in range(7))
        for i in range(7)
    )
    inverse = matrix_inverse(matrix, amb.field)
    monkeypatch.setattr(polyops, "matrix_rank", counting)
    rings._is_invertible.cache_clear()
    moved = [g.linear_change(matrix) for g in fat.gens]
    back = [g.linear_change(inverse) for g in moved]
    moves = rings._is_invertible.cache_info()
    monkeypatch.undo()
    assert len(fat.gens) == 85 and back == list(fat.gens)
    assert len(ranked) == moves.misses == len(set(ranked)) == 2
    assert moves.hits == 2 * 85 - 2


@given(small_polys)
@settings(max_examples=25)
def test_linear_change_round_trip(f):
    M = [[Fraction(1), Fraction(2)], [Fraction(1), Fraction(3)]]
    Minv = [[Fraction(3), Fraction(-2)], [Fraction(-1), Fraction(1)]]
    assert f.linear_change(M).linear_change(Minv) == f


# -- the QQ kernels against the generic loop ----------------------------------
#
# Over QQ, `_apply_images` and `evaluate` run on integer numerators; the
# generic loop `_generic_apply` is the QQ(sqrt(d)) path and the reference here.

S3 = PolyRing(("s", "t", "u"))
kernel_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=7)


def polys_in(ring, max_exp=3, max_size=5):
    return st.builds(
        ring.from_terms,
        st.lists(
            st.tuples(st.tuples(*[st.integers(0, max_exp)] * ring.nvars), kernel_fractions),
            max_size=max_size,
        ),
    )


def images_in(ring):
    """Image polynomials, zero and constant images included."""
    return st.one_of(polys_in(ring), st.just(ring.zero()), st.builds(ring.const, kernel_fractions))


matrices3 = st.lists(st.lists(kernel_fractions, min_size=3, max_size=3), min_size=3, max_size=3)


def linear_images(ring, rows):
    units = [tuple(int(i == j) for i in range(ring.nvars)) for j in range(ring.nvars)]
    return [ring.from_terms(zip(units, row)) for row in rows]


@given(polys_in(R2, max_exp=4, max_size=6), st.dictionaries(st.sampled_from("xy"), images_in(R2)))
@settings(max_examples=60)
def test_qq_substitute_equals_the_generic_loop(f, assignments):
    images = [assignments.get(v, R2.var(v)) for v in R2.variables]
    assert f.substitute(assignments) == f._generic_apply(images, R2.one(), R2.const)


@given(polys_in(R2, max_exp=4, max_size=6), st.lists(images_in(S3), min_size=2, max_size=2))
@settings(max_examples=60)
def test_qq_images_in_another_ring_equal_the_generic_loop(f, images):
    # the shape of `certify_squarefree_by_restriction`: no variable maps to itself
    assert f._apply_images(images, S3) == f._generic_apply(images, S3.one(), S3.const)


@given(polys_in(R3), matrices3)
@settings(max_examples=40)
def test_qq_linear_change_equals_the_generic_loop(F, rows):
    try:
        moved = F.linear_change(rows)
    except DegenerateInputError:
        return
    assert moved == F._generic_apply(linear_images(R3, rows), R3.one(), R3.const)


@given(polys_in(R3), matrices3)
@settings(max_examples=40)
def test_chart_is_the_dehomogenized_linear_change(F, rows):
    aff = PolyRing(("xc", "yc"))
    try:
        moved = F.linear_change(rows)
    except DegenerateInputError:
        with pytest.raises(DegenerateInputError):
            F.chart(rows, aff)
        return
    expected = moved.substitute({"x2": 1}).restrict(aff, {"x0": "xc", "x1": "yc"})
    assert F.chart(rows, aff) == expected


@given(polys_in(R3, max_exp=4, max_size=8), st.lists(kernel_fractions, min_size=3, max_size=3))
@settings(max_examples=60)
def test_qq_evaluate_equals_the_generic_loop(F, point):
    value = F.evaluate(point)
    assert type(value) is Fraction
    assert value == F._generic_apply(point, QQ.one, QQ.coerce)


def test_qq_kernels_on_zero_and_constants():
    assert R2.zero().substitute({"x": poly("y")}) == R2.zero()
    assert R2.const(Fraction(3, 7)).substitute({"x": poly("y")}) == R2.const(Fraction(3, 7))
    assert R2.zero().evaluate([1, 2]) == 0 and R2.const(5).evaluate([0, 0]) == 5
    f = poly("x^2*y - 1/3*y + 2")
    assert f.substitute({}) == f
    assert f.substitute({"x": 0, "y": Fraction(1, 2)}) == R2.const(Fraction(11, 6))


def test_qq_substitute_makes_no_polynomial_product(monkeypatch):
    f = R3.parse("x0^3*x1 - 2/3*x1^2*x2^2 + 5*x2^4")
    images = {"x0": R3.parse("x1 - 1/2*x2"), "x2": R3.parse("3*x0^2")}
    RK = PolyRing(R3.variables, QuadraticField(2))
    fK = f.restrict(RK)
    calls = []
    product = Polynomial.__mul__

    def counted(self, other):
        calls.append(1)
        return product(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counted)
    monkeypatch.setattr(Polynomial, "__rmul__", counted)
    f.substitute(images)
    f.linear_change([[1, 2, 0], [0, 1, Fraction(1, 3)], [1, 0, 1]])
    assert calls == []
    fK.substitute({"x0": RK.var("x1")})
    assert calls  # the QQ(sqrt(d)) path is the generic loop


def test_evaluate_at_a_high_power_needs_no_recursion():
    u = PolyRing(("x",))
    f = u.parse("x^1500")
    assert f.evaluate([Fraction(2, 3)]) == Fraction(2**1500, 3**1500)
    assert f._generic_apply([Fraction(2, 3)], QQ.one, QQ.coerce) == Fraction(2**1500, 3**1500)
    K = QuadraticField(2)
    g = PolyRing(("x",), K).parse("x^1500")
    root = QuadExt(1, 1, 2)  # 1 + sqrt(2), a unit of norm -1
    value = g.evaluate([root])
    assert value * root.conjugate() ** 1500 == K.one
    assert value == root**1500


# -- orders of vanishing ------------------------------------------------------


def test_order_at_zero_examples():
    u = PolyRing(("x",))
    assert u.parse("-x^5 + x^7").order_at_zero() == 5
    assert u.parse("0").order_at_zero() == INF
    assert u.parse("3").order_at_zero() == 0


def test_order_at_zero_rejects_multivariate():
    with pytest.raises(ValueError):
        poly("x*y").order_at_zero()


@given(
    st.lists(st.tuples(st.integers(0, 6), st.fractions(min_value=-3, max_value=3, max_denominator=3)), max_size=4),
    st.lists(st.tuples(st.integers(0, 6), st.fractions(min_value=-3, max_value=3, max_denominator=3)), max_size=4),
)
@settings(max_examples=40)
def test_order_is_additive(t1, t2):
    u = PolyRing(("x",))
    f = u.from_terms({(e,): c for e, c in t1})
    g = u.from_terms({(e,): c for e, c in t2})
    lhs = (f * g).order_at_zero()
    rhs = f.order_at_zero() + g.order_at_zero()
    assert lhs == rhs  # inf absorbs through float('inf') arithmetic


# -- homogenization helpers ---------------------------------------------------


def test_homogenize_dehomogenize():
    f = poly("y^2 - x^3 + x")
    F = f.homogenize(R3, "x2", {"x": "x0", "y": "x1"})
    assert F == R3.parse("x1^2*x2 - x0^3 + x0*x2^2")
    assert F.is_homogeneous()
    back = F.substitute({"x2": R3.one()}).restrict(R2, {"x0": "x", "x1": "y"})
    assert back == f
