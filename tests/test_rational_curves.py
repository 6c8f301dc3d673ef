"""Rational normal curves, osculating spaces, projections, implicitization."""

import random
import re
from fractions import Fraction

import pytest

from oscurve.errors import DegenerateInputError
from oscurve.groebner import (
    Ideal,
    _degree_exponents,
    ideal_intersection,
    ideal_power,
    ideal_sum,
    irrelevant_ideal,
    saturate,
    scheme_length,
)
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
    validate_center,
)
from oscurve.qfields import QQ, QuadExt, QuadraticField
from oscurve.rings import PolyRing

from helpers import project_by_elimination, saturate_by_one_line, sylvester_resultant

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


@pytest.mark.parametrize("point", [(1, 0, 0, 0, 0, 7), (1, 0, 0, 0)])
def test_point_ideal_refuses_a_point_of_the_wrong_length(point):
    with pytest.raises(DegenerateInputError, match="needs 5 coordinates"):
        point_ideal(ambient_ring(4), point)


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


@pytest.mark.parametrize(
    "targets, message",
    [
        (("u", "v"), "three distinct targets"),
        (("u", "v", "w", "x"), "three distinct targets"),
        (("u", "v", "a"), "the target 'a' is an ambient variable"),
    ],
    ids=["two", "four", "ambient-name"],
)
def test_projection_refuses_targets_that_are_not_three_new_names(targets, message):
    amb = ambient_ring(6, SEXTIC_NAMES)
    with pytest.raises(DegenerateInputError, match=message):
        project_scheme(point_ideal(amb, [1] * 7), sextic_center(amb), targets=targets)


def test_projection_refuses_a_non_homogeneous_scheme():
    amb = ambient_ring(6, SEXTIC_NAMES)
    affine = Ideal(amb, [g - 1 for g in amb.gens()[:-1]])  # a - 1, ..., f - 1
    with pytest.raises(DegenerateInputError, match="needs a homogeneous ideal"):
        project_scheme(affine, sextic_center(amb))


# -- projection by the chart image, against elimination --------------------------------


def _contact_scheme(k):
    """(b, c, d, e, f)^k + RNC_6: the k-th order contact scheme of the sextic."""
    amb = ambient_ring(6, SEXTIC_NAMES)
    through = Ideal(amb, [amb.var(v) for v in "bcdef"])
    return ideal_sum(ideal_power(through, k), rational_normal_curve_ideal(6, SEXTIC_NAMES))


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_contact_scheme_projection_equals_elimination(k):
    center = sextic_center(ambient_ring(6, SEXTIC_NAMES))
    image = project_scheme(_contact_scheme(k), center)
    assert image.gens == image.groebner_basis().polys
    assert image == project_by_elimination(_contact_scheme(k), center)


def _random_form(rng, ring, degree):
    exps = list(_degree_exponents(ring.nvars, degree))
    return ring.from_terms({e: rng.randint(-3, 3) for e in rng.sample(exps, min(len(exps), 4))})


def _random_point(rng, n):
    while True:
        point = [rng.randint(-3, 3) for _ in range(n + 1)]
        if any(point):
            return point


def _refused(seed):
    """Every seventh seed of points or a fat point in P^n, n > 2."""
    return seed % 7 == 6 and seed // 5 % 3 < 2 and seed % 5 > 0


def _seeded_projection(seed):
    """(scheme, center) in P^n, n = 2..6: two to four points, a fat point and
    a point, or a complete intersection of n - 2 lines and two conics.  The
    center is random, except for the `_refused` seeds: three forms through a
    support point, which the projection must refuse."""
    rng = random.Random(seed)
    n = 2 + seed % 5
    ring = PolyRing([f"x{i}" for i in range(n + 1)])
    kind = seed // 5 % 3
    first = _random_point(rng, n)
    if kind == 0:
        scheme = point_ideal(ring, first)
        for _ in range(rng.randint(1, 2 if n > 3 else 3)):
            scheme = ideal_intersection(scheme, point_ideal(ring, _random_point(rng, n)))
    elif kind == 1:
        fat = ideal_power(point_ideal(ring, first), 2)
        scheme = ideal_intersection(fat, point_ideal(ring, _random_point(rng, n)))
    else:
        lines = [_random_form(rng, ring, 1) for _ in range(n - 2)]
        scheme = Ideal(ring, lines + [_random_form(rng, ring, 2) for _ in range(2)])
    while True:
        if _refused(seed):
            gens = point_ideal(ring, first).gens
            center = [sum((g * rng.randint(-3, 3) for g in gens), ring.zero()) for _ in range(3)]
        else:
            center = [_random_form(rng, ring, 1) for _ in range(3)]
        try:
            return scheme, validate_center(ring, center)
        except DegenerateInputError:
            continue


def _outcome(project, scheme, center):
    try:
        return project(Ideal(scheme.ring, scheme.gens), center).groebner_basis().polys
    except DegenerateInputError as exc:
        return str(exc)


@pytest.mark.parametrize("seed", range(35))
def test_seeded_projection_equals_elimination(seed):
    scheme, center = _seeded_projection(seed)
    ours = _outcome(project_scheme, scheme, center)
    assert ours == _outcome(project_by_elimination, scheme, center)
    assert (ours == "the projection center meets the scheme") == _refused(seed)
    m = irrelevant_ideal(scheme.ring)
    assert saturate(scheme, m).gens == saturate_by_one_line(scheme).groebner_basis().polys


def test_projection_skips_a_candidate_line_through_the_scheme(monkeypatch):
    from oscurve import rational_curves

    amb = ambient_ring(6, SEXTIC_NAMES)
    center = sextic_center(amb)
    # P goes to (1, -1, 0), where the first candidate, the sum of the center
    # forms, vanishes; the second, (1, 2, 3), does not vanish there nor at the
    # image (2, 1, 9) of Q
    P, Q = (1, 1, 0, 0, 0, 0, 0), (1,) * 7
    scheme = ideal_intersection(point_ideal(amb, P), point_ideal(amb, Q))
    charts = []
    chart_image = rational_curves._chart_image
    monkeypatch.setattr(
        rational_curves, "_chart_image", lambda chart, *rest: charts.append(chart) or chart_image(chart, *rest)
    )
    image = project_scheme(scheme, center)
    l0, l1, l2 = center
    (chart,) = charts
    assert chart.contains(l0 + l1 * 2 + l2 * 3 - 1)
    assert image == project_by_elimination(scheme, center)
    assert scheme_length(image) == 2


def test_projection_of_the_empty_scheme_is_the_unit_ideal():
    amb = ambient_ring(6, SEXTIC_NAMES)
    center = sextic_center(amb)
    empty = ideal_sum(_contact_scheme(2), Ideal(amb, [amb.var("a") - amb.var("g")]))
    image = project_scheme(empty, center)
    assert image.is_unit() and image == project_by_elimination(empty, center)


def test_projection_of_a_curve_takes_the_elimination_route(monkeypatch):
    from oscurve import rational_curves

    amb = ambient_ring(4)
    z0, z1, z2, z3, z4 = amb.gens()
    center = [z0 + z4, z1 - z3 * 2, z2 + z0 - z1]
    eliminated = []
    eliminate = rational_curves.eliminate
    monkeypatch.setattr(rational_curves, "eliminate", lambda *a: eliminated.append(1) or eliminate(*a))
    image = project_scheme(rational_normal_curve_ideal(4), center)
    assert eliminated == [1]
    curve = implicitize(parameterization_from_center(4, center), names=("u", "v", "w"))
    assert curve.map_degree == 1 and image == Ideal(image.ring, [curve.poly])


def test_finite_projection_stays_in_the_ambient_ring(monkeypatch):
    from oscurve import groebner, rational_curves

    def refuse(*args):
        raise AssertionError("a finite scheme is projected without elimination")

    monkeypatch.setattr(rational_curves, "eliminate", refuse)
    monkeypatch.setattr(groebner, "eliminate", refuse)
    sizes = []
    buchberger = groebner.buchberger
    monkeypatch.setattr(
        groebner, "buchberger", lambda I, *order: sizes.append(I.ring.nvars) or buchberger(I, *order)
    )
    image = project_scheme(_contact_scheme(4), sextic_center(ambient_ring(6, SEXTIC_NAMES)))
    assert [str(p) for p in image.gens] == ["w^2", "v^2*w", "-u*v*w + v^3"]
    assert set(sizes) == {7, 3}


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
    for n, param in seeded.items():
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


@pytest.mark.parametrize("M", [1, 2, 3, 10**6, 2**64 + 13])
def test_vanishing_point_passes_the_largest_root_the_norm_allows(M):
    # on (s : t : s), M*x - y gives G(T) = M - T: its root M is as large as a
    # root of an integer polynomial of l1 norm M + 1 can be (Cauchy's bound)
    param = PlaneParameterization.parse("s; t; s")
    x, y, z = PolyRing(("x", "y", "z")).gens()
    assert _vanishes_on(x - z, param)
    assert not _vanishes_on(x * M - y, param)
    assert not _vanishes_on((x * M - y) * (x * (M + 1) - y) * z, param)
    # G(T) = T*(T - 1)*...*(T - 6): zero at the first seven integers
    candidate = y
    for i in range(1, 7):
        candidate = candidate * (y - x * i)
    assert not _vanishes_on(candidate, param)
    # over QQ(sqrt 2), a candidate whose rational part vanishes on the curve
    # and whose sqrt(2) part is M - T
    param = PlaneParameterization.parse("s; t; s", field=QQ2)
    x, y, z = PolyRing(("x", "y", "z"), QQ2).gens()
    sqrt2 = QQ2.coerce(QuadExt(0, 1, 2))
    assert _vanishes_on((x - z) * sqrt2, param)
    assert not _vanishes_on(x - z + (x * M - y) * sqrt2, param)
    # a bound blind to the sqrt(2) part would evaluate at 2 + |x - z| = 4
    assert not _vanishes_on(x - z + (x * 4 - y) * sqrt2, param)


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


@pytest.mark.parametrize("q", [(1, 1), (1, -2), (3, 1)])
def test_cone_fiber_image_ideal_is_the_projected_point(q):
    amb = ambient_ring(6, SEXTIC_NAMES)
    center = sextic_center(amb)
    source = moment_point(6, q)
    result = cone_fiber_test(6, center, source, SEXTIC_NAMES)
    projected = project_scheme(point_ideal(amb, source), center)
    assert result.image_ideal.groebner_basis().polys == projected.groebner_basis().polys


@pytest.mark.parametrize("point", [(1, 0, 0, 0), (1, 0, 0, 0, 0, 0)])
def test_cone_fiber_refuses_a_source_point_of_the_wrong_length(point):
    ring = ambient_ring(4)
    x0, x1, x2, x3, x4 = ring.gens()
    with pytest.raises(DegenerateInputError, match="needs 5 coordinates"):
        cone_fiber_test(4, [x0 + x4, x1 - x3, x2], point)
