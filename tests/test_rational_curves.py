"""Rational normal curves, osculating spaces, projections, implicitization."""

import random
import re
from fractions import Fraction

import pytest

from oscurve.errors import DegenerateInputError
from oscurve.groebner import Ideal, ideal_power, ideal_sum, scheme_length
from oscurve.polyops import exact_divide, squarefree_part
from oscurve.rational_curves import (
    PlaneParameterization,
    _cross,
    _moving_line_matrix,
    _vanishes_on,
    ambient_ring,
    cone_fiber_test,
    implicitize,
    moment_point,
    osculating_space_ideal,
    param_ring,
    parameterization_from_center,
    point_ideal,
    project_scheme,
    rational_normal_curve_ideal,
)
from oscurve.qfields import QQ, QuadraticField
from oscurve.rings import PolyRing

from helpers import sylvester_resultant

SEXTIC_NAMES = tuple("abcdefg")
QQ2 = QuadraticField(2)


def sextic_center(ring):
    a, b, c, d, e, f, g = ring.gens()
    return [a + g, 3 * f - b - d, 9 * e + c - d]


# -- the standard curve ----------------------------------------------------------


def test_conic_ideal():
    I = rational_normal_curve_ideal(2)
    assert [str(p) for p in I.gens] == ["z0*z2 - z1^2"]


def test_degree_six_ideal_contains_expected_minors():
    I = rational_normal_curve_ideal(6, SEXTIC_NAMES)
    texts = {str(g) for g in I.gens}
    assert "a*c - b^2" in texts
    assert "e*g - f^2" in texts
    assert len(I.gens) == 15


def test_degree_too_small():
    with pytest.raises(DegenerateInputError):
        rational_normal_curve_ideal(1)


def test_moment_points_satisfy_the_ideal():
    I = rational_normal_curve_ideal(6)
    for q in ((1, 0), (0, 1), (1, 1), (2, -3)):
        pt = moment_point(6, q)
        for g in I.gens:
            assert g.evaluate(pt) == 0


def test_moment_identity_symbolic():
    # substitute the parameterization into each generator: identically zero
    I = rational_normal_curve_ideal(4)
    st = PolyRing(("s", "t"))
    images = {f"z{i}": st.parse(f"s^{4 - i}*t^{i}" if 0 < i < 4 else ("s^4" if i == 0 else "t^4"))
              for i in range(5)}
    for g in I.gens:
        assert g.substitute(images, target_ring=st).is_zero


# -- osculating spaces -------------------------------------------------------------


def test_osculating_planes_of_the_sextic():
    at_first = osculating_space_ideal(6, (1, 0), 2, SEXTIC_NAMES)
    assert sorted(str(p) for p in at_first.gens) == ["d", "e", "f", "g"]
    at_last = osculating_space_ideal(6, (0, 1), 2, SEXTIC_NAMES)
    assert sorted(str(p) for p in at_last.gens) == ["a", "b", "c", "d"]


def test_osculating_order_zero_is_the_point():
    I = osculating_space_ideal(3, (1, 2), 0)
    pt = moment_point(3, (1, 2))
    assert len(I.gens) == 3
    for g in I.gens:
        assert g.evaluate(pt) == 0


def test_osculating_out_of_range():
    with pytest.raises(DegenerateInputError):
        osculating_space_ideal(4, (1, 0), 4)


def test_osculating_spaces_nest():
    # the span of (r+1)Q contains the span of rQ: ideals shrink as r grows
    for r in range(0, 4):
        bigger = osculating_space_ideal(5, (1, 3), r + 1)
        smaller = osculating_space_ideal(5, (1, 3), r)
        for form in bigger.gens:
            assert smaller.contains(form)


# -- projections --------------------------------------------------------------------


def test_projection_of_a_single_point_is_its_image():
    amb = ambient_ring(6, SEXTIC_NAMES)
    center = sextic_center(amb)
    image = project_scheme(point_ideal(amb, [1] * 7), center)
    assert [str(p) for p in image.groebner_basis().polys] == ["v - 1/9*w", "u - 2/9*w"]


def test_projection_commutes_with_parameterization():
    amb = ambient_ring(6, SEXTIC_NAMES)
    center = sextic_center(amb)
    param = parameterization_from_center(6, center, SEXTIC_NAMES)
    for q in ((1, 1), (1, -2), (3, 1)):
        src = moment_point(6, q)
        image_ideal = project_scheme(point_ideal(amb, src), center)
        value = param.evaluate(q)
        for g in image_ideal.gens:
            assert g.evaluate(value) == 0


def test_projection_rejects_center_meeting_the_scheme():
    amb = ambient_ring(6, SEXTIC_NAMES)
    a, b, c, d, e, f, g = amb.gens()
    # V(b, c, d) contains the curve point [1,0,...,0]
    with pytest.raises(DegenerateInputError):
        project_scheme(point_ideal(amb, (1, 0, 0, 0, 0, 0, 0)), [b, c, d])


def test_project_contact_schemes():
    amb = ambient_ring(6, SEXTIC_NAMES)
    a, b, c, d, e, f, g = amb.gens()
    center = sextic_center(amb)
    curve = rational_normal_curve_ideal(6, SEXTIC_NAMES)
    line_cube = ideal_power(Ideal(amb, [b, c, d, e, f]), 3)
    image = project_scheme(ideal_sum(line_cube, curve), center)
    target = image.ring
    assert image == Ideal(target, [target.parse(t) for t in ("w^2", "v*w", "v^2 - u*w")])
    assert scheme_length(image) == 3


# -- parameterizations ---------------------------------------------------------------


def test_sextic_parameterization_forms():
    amb = ambient_ring(6, SEXTIC_NAMES)
    param = parameterization_from_center(6, sextic_center(amb), SEXTIC_NAMES)
    assert [str(f) for f in param.forms] == [
        "s^6 + t^6",
        "-s^5*t - s^3*t^3 + 3*s*t^5",
        "s^4*t^2 - s^3*t^3 + 9*s^2*t^4",
    ]


def test_conic_parameterization_from_coordinate_center():
    param = parameterization_from_center(2, [v for v in ambient_ring(2).gens()])
    assert [str(f) for f in param.forms] == ["s^2", "s*t", "t^2"]


def test_center_meeting_the_curve_is_refused():
    amb = ambient_ring(3)
    z0, z1, z2, z3 = amb.gens()
    # all three forms vanish at the parameter (1, 1)
    with pytest.raises(DegenerateInputError):
        parameterization_from_center(3, [z0 - z1, z1 - z2, z2 - z3])


def test_parameterization_validation():
    with pytest.raises(DegenerateInputError):
        PlaneParameterization.parse("s^2; s*t; s^2 + s*t")  # common factor s... degree mix
    with pytest.raises(DegenerateInputError):
        PlaneParameterization.parse("s^2; s*t; s^2 + 2*s*t")  # gcd s


@pytest.mark.parametrize(
    "text, factor",
    [
        # an affine base point, [s : t] = [1 : 1]
        ("s*(s - t); t*(s - t); (s + t)*(s - t)", "s - t"),
        # a base point at [s : t] = [1 : 0]
        ("s*t; t^2; s*t + 2*t^2", "t"),
    ],
)
def test_from_forms_names_the_shared_factor(text, factor):
    with pytest.raises(DegenerateInputError, match=f"share the factor {re.escape(factor)}: "):
        PlaneParameterization.parse(text)


# -- implicitization -----------------------------------------------------------------


def test_implicitize_conic():
    result = implicitize(PlaneParameterization.parse("s^2; s*t; t^2"))
    assert str(result.poly) == "x*z - y^2"
    assert result.map_degree == 1


def test_implicitize_cuspidal_cubic():
    param = PlaneParameterization.parse("s^3; s^2*t; t^3")
    result = implicitize(param)
    assert str(result.poly) == "x^2*z - y^3"
    pullback = result.poly.substitute(
        {"x": param.f0, "y": param.f1, "z": param.f2}, target_ring=param.ring
    )
    assert pullback.is_zero


def test_implicitize_sextic_vanishes_and_has_double_point():
    amb = ambient_ring(6, SEXTIC_NAMES)
    param = parameterization_from_center(6, sextic_center(amb), SEXTIC_NAMES)
    result = implicitize(param)
    F = result.poly
    assert F.degree() == 6 and result.map_degree == 1
    pullback = F.substitute({"x": param.f0, "y": param.f1, "z": param.f2}, target_ring=param.ring)
    assert pullback.is_zero
    # the marked image point [1,0,0] = image of both (1,0) and (0,1)
    assert F.evaluate((1, 0, 0)) == 0
    chart = F.substitute({"x": F.ring.one()})
    assert chart.coefficient_in("x", 0).lowest_degree() == 2  # a double point


def test_improper_parameterization_detected():
    param = PlaneParameterization.parse("s^4; s^2*t^2; t^4")
    assert not param.proper and param.implicit.map_degree == 2
    assert str(implicitize(param).poly) == "x*z - y^2"


def _seeded_parameterization(n, rng):
    """parameterization_from_center on a random center with coefficients in
    [-3, 3] whose first form has an s^n term, so that the Sylvester route
    keeps degree n in s."""
    amb = ambient_ring(n)
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(n + 1)] for _ in range(3)]
        if not rows[0][0]:
            continue
        forms = [sum((c * z for c, z in zip(row, amb.gens())), amb.zero()) for row in rows]
        try:
            return parameterization_from_center(n, forms)
        except DegenerateInputError:
            continue


@pytest.fixture(scope="module")
def seeded():
    """{n: seeded parameterization} for each degree n = 2..8."""
    rng = random.Random(7)
    return {n: _seeded_parameterization(n, rng) for n in range(2, 9)}


def _sylvester_route(param):
    """The resultant in s of y*f0 - x*f1 and z*f0 - x*f2 at t = 1, which is
    x^n * F^d up to a constant, and its ring QQ[s, x, y, z]."""
    ring = PolyRing(("s", "x", "y", "z"))
    x, y, z = (ring.var(v) for v in "xyz")
    f0, f1, f2 = (f.substitute({"t": 1}).restrict(ring) for f in param.forms)
    return sylvester_resultant(y * f0 - x * f1, z * f0 - x * f2, "s"), ring


def test_moving_line_determinant_is_a_power_of_the_implicit_equation(seeded):
    params = list(seeded.values()) + [
        PlaneParameterization.parse("s^4; s^2*t^2; t^4"),
        PlaneParameterization.parse("s^3; t^3; s^3 + t^3"),
    ]
    degrees = set()
    for param in params:
        curve = param.implicit
        det = _moving_line_matrix(param, curve.poly.ring).det()
        power = curve.poly**curve.map_degree
        c = det.sorted_terms()[0][1] / power.sorted_terms()[0][1]
        assert c and det == power * c, str(param.forms)
        degrees.add(curve.map_degree)
    assert degrees == {1, 2, 3}


def test_moving_line_route_agrees_with_the_sylvester_route(seeded):
    # n = 8 is left out: its 16 x 16 Sylvester determinant takes seconds
    for n, param in seeded.items():
        if n > 7:
            continue
        res, ring = _sylvester_route(param)
        x = ring.var("x")
        low = min(e[1] for e in res.terms)
        old = squarefree_part(exact_divide(res, x**low))
        assert str(old) == str(param.implicit.poly), n


def test_moving_line_route_agrees_with_sympy(seeded):
    sympy = pytest.importorskip("sympy")
    s, x, y, z = sympy.symbols("s x y z")
    for n, param in seeded.items():
        if n > 7:
            continue
        f0, f1, f2 = (sympy.sympify(str(f).replace("^", "**")).subs("t", 1) for f in param.forms)
        res = sympy.resultant(y * f0 - x * f1, z * f0 - x * f2, s)
        curve = param.implicit
        F = sympy.sympify(str(curve.poly).replace("^", "**"))
        ratio = sympy.cancel(res / (x**n * F**curve.map_degree))
        assert ratio.is_number and ratio != 0, n


def test_implicitize_refuses_a_non_vanishing_candidate(monkeypatch):
    from oscurve import rational_curves
    from oscurve.errors import InvariantViolation

    # a wrong squarefree part: the implicit cubic plus x^3, which does not
    # vanish on the curve
    true_part = rational_curves.squarefree_part
    monkeypatch.setattr(
        rational_curves, "squarefree_part", lambda p: true_part(p) + p.ring.parse("x^3")
    )
    with pytest.raises(InvariantViolation, match="non-vanishing"):
        implicitize(PlaneParameterization.parse("(s^2 - t^2)*t; s*(s^2 - t^2); t^3"))


@pytest.mark.parametrize(
    "text, field",
    [("s^3 + 1/2*t^3; s^2*t; s*t^2 - 1/3*t^3", QQ), ("s^3 + sqrt(2)*t^3; s^2*t; s*t^2", QQ2)],
    ids=["QQ", "QQ(sqrt2)"],
)
def test_vanishing_check_on_the_parameter_line(text, field):
    param = PlaneParameterization.parse(text, field=field)
    F = param.implicit.poly
    assert _vanishes_on(F, param) and _vanishes_on(F * Fraction(1, 7), param)
    # a wrong cubic that vanishes at phi(1 : i) for i = 0, 1, 2 but not on the
    # whole curve: F plus the lines joining each of those points to (1, 2, 5)
    lines = F.ring.one()
    for i in range(3):
        coeffs = _cross(param.evaluate((1, i)), (1, 2, 5))
        lines = lines * sum((g * c for g, c in zip(F.ring.gens(), coeffs)), F.ring.zero())
    wrong = F + lines
    assert all(wrong.evaluate(param.evaluate((1, i))) == 0 for i in range(3))
    assert not _vanishes_on(wrong, param)


def test_implicitize_refuses_a_base_point():
    ring = param_ring()
    f0, f1, f2 = (ring.parse(t) for t in ("s^2", "s*t", "s^2 + s*t"))
    with pytest.raises(DegenerateInputError):
        implicitize(PlaneParameterization(f0, f1, f2, 2))


def test_proper_conic():
    param = PlaneParameterization.parse("s^2; s*t; t^2")
    assert (param.proper, param.implicit.map_degree) == (True, 1)


def test_properness_check_leaves_equality_and_hash_alone():
    text = "(s^2 - t^2)*t; s*(s^2 - t^2); t^3"
    param, unchecked = PlaneParameterization.parse(text), PlaneParameterization.parse(text)
    before = hash(param)
    held = {param}
    assert (param.proper, param.implicit.map_degree) == (True, 1)
    assert hash(param) == before == hash(unchecked)
    assert param == unchecked and param in held and unchecked in held


# -- the cone fiber test ---------------------------------------------------------------


def test_cone_fiber_certifies_generic_injectivity():
    result = cone_fiber_test(6, sextic_center(ambient_ring(6, SEXTIC_NAMES)), [1] * 7, SEXTIC_NAMES)
    assert result.image_point == (Fraction(2), Fraction(1), Fraction(9))
    assert result.single_reduced_point
    assert [str(p) for p in result.fiber_ideal.groebner_basis().polys] == [
        "f - g",
        "e - g",
        "d - g",
        "c - g",
        "b - g",
        "a - g",
    ]
