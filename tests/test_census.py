"""Multiple-point schemes and the singularity census."""

import pytest

from oscurve.census import (
    _image_of_site,
    classify_curve_singularities,
    cusp_conic,
    double_point_census,
    has_triple_point,
    is_curvilinear_at,
    multiple_point_matrix,
    multiple_point_scheme_ideal,
    support_sites,
)
from oscurve.classifier import classify_double_point
from oscurve.errors import DegenerateInputError, OscurveError
from oscurve.groebner import (
    Ideal,
    TermOrder,
    _chart_coordinates,
    _finite_chart,
    _last_variable_chart,
    chart_algebra,
    ideal_intersection,
    ideal_power,
    ideal_sum,
    is_empty_scheme,
    saturate,
    scheme_length,
    zero_dim_radical,
)
from oscurve.polyops import poly_gcd, poly_normalize
from oscurve.qfields import QQ, field_of
from oscurve.rational_curves import (
    PlaneParameterization,
    ambient_ring,
    parameterization_from_center,
    point_ideal,
)
from oscurve.rings import PolyRing

from helpers import (
    fiber_form,
    has_triple_point_grevlex,
    projective_ideal_by_saturation,
    radical_route_chart,
)

SEXTIC_NAMES = tuple("abcdefg")
NODAL_CUBIC = "(s^2 - t^2)*t; s*(s^2 - t^2); t^3"
CUSPIDAL_CUBIC = "s^2*t; s^3; t^3"
# projection of the degree-4 standard curve with matched branch two-jets at
# the images of (1,0) and (0,1): a quartic whose only singularity is A5
OSCNODE_QUARTIC_CENTER = ("a + d + 4*e", "b + 2*d", "b + c + 2*d")
# same construction with the two-jet condition broken: a tacnode plus a node
TACNODE_QUARTIC_CENTER = ("a + 2*e", "b + 3*d", "2*b + c + 6*d")


def sextic_param():
    amb = PolyRing(SEXTIC_NAMES)
    a, b, c, d, e, f, g = amb.gens()
    return parameterization_from_center(
        6, [a + g, 3 * f - b - d, 9 * e + c - d], SEXTIC_NAMES
    )


def quartic_param(center_texts):
    amb = ambient_ring(4, "abcde")
    return parameterization_from_center(4, [amb.parse(t) for t in center_texts], "abcde")


def site_quadratic(param, site):
    """The binary quadratic c0*s^2 + c1*s*t + c2*t^2 of a scheme point, checked
    to be the fiber form of the site's image point up to a scalar."""
    s, t = param.ring.gens()
    c0, c1, c2 = (param.ring.field.coerce(c) for c in site.coords)
    quadratic = poly_normalize(s * s * c0 + s * t * c1 + t * t * c2)
    assert poly_normalize(fiber_form(param, site.image_point)) == quadratic
    return quadratic


def generator_param(n):
    """The ROADMAP generator: the first center of coefficients in [-3, 3]
    drawn from random.Random(7) that gives a proper parameterization of
    degree n."""
    import random

    rng = random.Random(7)
    amb = ambient_ring(n)
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(n + 1)] for _ in range(3)]
        center = [sum((c * z for c, z in zip(row, amb.gens())), amb.zero()) for row in rows]
        try:
            return parameterization_from_center(n, center)
        except OscurveError:
            continue


def has_multiplicity_at_least(param, k):
    """The k-fold point oracle: the scheme of the k-th banded matrix is
    nonempty exactly when the image has a point of multiplicity >= k."""
    return not is_empty_scheme(multiple_point_scheme_ideal(param, k))


def site_ideal(piece, ring):
    """Homogeneous ideal of one support piece: the points where each
    coordinate takes its image, over the roots of the piece's factor, back
    from the chart of the piece's line."""
    gens = [piece.factor] + [ring.var(w) - p for w, p in zip(ring.variables, piece.images)]
    return projective_ideal_by_saturation(gens, piece.line, ring)


def first_chart(ideal):
    """The first (line, basis) that `_finite_chart` yields for a plane scheme."""
    return next(_finite_chart(ideal, ideal.ring.gens()))


# -- the banded matrix -----------------------------------------------------------


def test_matrix_shape_for_cubic():
    M = multiple_point_matrix(PlaneParameterization.parse(NODAL_CUBIC), 2)
    assert (M.rows, M.cols) == (5, 4)


def test_band_rows_carry_shifted_coordinates():
    param = sextic_param()
    M = multiple_point_matrix(param, 2)
    ring = M.ring
    gens = ring.gens()
    for i in range(5):
        for j in range(7):
            expected = gens[j - i] if 0 <= j - i <= 2 else ring.zero()
            assert M.entry(i, j) == expected


def test_sextic_coefficient_rows():
    M = multiple_point_matrix(sextic_param(), 2)
    rows = [[str(M.entry(i, j)) for j in range(7)] for i in (5, 6, 7)]
    assert rows == [
        ["1", "0", "0", "0", "0", "0", "1"],
        ["0", "-1", "0", "-1", "0", "3", "0"],
        ["0", "0", "1", "-1", "9", "0", "0"],
    ]


def test_k_out_of_range():
    param = PlaneParameterization.parse("s^2; s*t; t^2")
    with pytest.raises(DegenerateInputError):
        multiple_point_scheme_ideal(param, 2)  # n = 2 leaves no valid k


def test_triple_point_scheme_empty_for_double_point_curves():
    # the census's gate against the grevlex gate and the k = 3 oracle
    for name, build in CENSUS_INPUTS.items():
        param = build()
        assert not has_triple_point(param), name
        assert not has_triple_point_grevlex(param.implicit.poly), name
        # a proper cubic is irreducible, so it has no triple point; k = 3 needs n >= 4
        assert param.n == 3 or not has_multiplicity_at_least(param, 3), name


# phi(1 : 0) = [1 : 0 : 0] is on the curve, so F has no x^4 term and H_xx
# vanishes there although H_xx != 0; the triple point is phi(0 : 1)
ANCHOR_NOT_FIRST = "s^4 + s^3*t; s^3*t; t^4"
TRIPLE_POINT_CURVES = (
    # near [s : t] = [1 : 0] the branch of the quartic is (t^3, t^4): a triple
    # point at [1 : 0 : 0]
    "s^4; s*t^3; t^4",
    # the same at [s : t] = [0 : 1], an affine parameter: the exact gcd decides
    "t^4; s^3*t; s^4",
    # f0 and f1 share the factors s, t and s - t, so [1 : 0], [0 : 1] and
    # [1 : 1] all go to [0 : 0 : 1]
    "s*t*(s - t)*(s^3 + 2*t^3); s*t*(s - t)*(s^3 - s*t^2 + 3*t^3); "
    "s^6 + 2*s^5*t - s^3*t^3 + 3*s*t^5 + t^6",
    ANCHOR_NOT_FIRST,
)


def test_triple_point_scheme_nonempty_for_a_triple_point():
    for text in TRIPLE_POINT_CURVES:
        param = PlaneParameterization.parse(text)
        assert param.proper
        assert has_multiplicity_at_least(param, 3)
        assert has_triple_point_grevlex(param.implicit.poly)
        assert has_triple_point(param)
        with pytest.raises(DegenerateInputError, match="multiplicity >= 3"):
            double_point_census(param)


def _second_partials_at_infinity(param):
    F = param.implicit.poly
    x, y, z = F.ring.variables
    point = [f.terms.get((param.n, 0), 0) for f in param.forms]
    pairs = ((x, x), (x, y), (x, z), (y, y), (y, z), (z, z))
    return [F.derivative(v).derivative(w) for v, w in pairs], point


def test_triple_point_gate_anchors_past_a_vanishing_first_partial():
    param = PlaneParameterization.parse(ANCHOR_NOT_FIRST)
    second, point = _second_partials_at_infinity(param)
    assert not second[0].is_zero and second[0].evaluate(point) == 0
    assert any(h.evaluate(point) for h in second)
    assert has_triple_point(param)
    assert has_triple_point_grevlex(param.implicit.poly)


def _count_exact_gcds(monkeypatch):
    from oscurve import census

    calls = []
    original = census.poly_gcd

    def counting(p, q):
        calls.append(1)
        return original(p, q)

    monkeypatch.setattr(census, "poly_gcd", counting)
    return calls


def _count_derivatives(monkeypatch):
    from oscurve.rings import Polynomial

    calls = []
    original = Polynomial.derivative

    def counting(self, name):
        calls.append(name)
        return original(self, name)

    monkeypatch.setattr(Polynomial, "derivative", counting)
    return calls


def test_triple_point_gate_decides_double_point_curves_modulo_the_prime(monkeypatch):
    params = {name: CENSUS_INPUTS[name]() for name in CENSUS_INPUTS}
    for param in params.values():
        param.implicit
    calls, derivatives = _count_exact_gcds(monkeypatch), _count_derivatives(monkeypatch)
    for name, param in params.items():
        assert not has_triple_point(param), name
    # the certificate settles them without an exact derivative of F
    assert calls == derivatives == []
    # a triple point at an affine parameter is confirmed by the exact gcd
    param = PlaneParameterization.parse("t^4; s^3*t; s^4")
    assert has_triple_point(param) and calls and derivatives
    second, point = _second_partials_at_infinity(param)
    assert any(h.evaluate(point) for h in second)


@pytest.mark.parametrize("prime", [2, 3, 5])
def test_triple_point_gate_stays_exact_with_an_unlucky_prime(monkeypatch, prime):
    # a tiny prime divides leading coefficients and makes coprime forms meet,
    # so the gate must fall back to the exact gcd and still agree
    from oscurve import census, polyops

    names = ["nodal-cubic", "cuspidal-cubic", "sextic", "tacnode-quartic", "mixed-quartic"]
    params = [CENSUS_INPUTS[name]() for name in names]
    # a triple point at [s : t] = [1 : 5]: its factor 5*s - t loses the
    # leading coefficient mod 5, so no H_ij(phi) may serve as the anchor
    texts = TRIPLE_POINT_CURVES + ("s^4; (5*s - t)^3*s; (5*s - t)^4",)
    params += [PlaneParameterization.parse(text) for text in texts]
    expected = [has_triple_point_grevlex(param.implicit.poly) for param in params]
    monkeypatch.setattr(polyops, "PRIME", prime)
    monkeypatch.setattr(census, "PRIME", prime)
    calls = _count_exact_gcds(monkeypatch)
    assert [has_triple_point(param) for param in params] == expected
    assert calls


def test_triple_point_gate_without_residues_takes_the_exact_route(monkeypatch):
    from oscurve import census

    # "t^4; s^3*t; s^4" is refused; every H_ij of "s^4; s*t^3; t^4" vanishes at phi(1 : 0)
    texts = ("t^4; s^3*t; s^4", "s^4; s*t^3; t^4")
    second, point = _second_partials_at_infinity(PlaneParameterization.parse(texts[1]))
    assert not any(h.evaluate(point) for h in second)
    params = [build() for build in CENSUS_INPUTS.values()]
    params += [PlaneParameterization.parse(text) for text in texts]
    expected = [has_triple_point(param) for param in params]
    assert expected == [False] * len(CENSUS_INPUTS) + [True, True]
    derivatives = _count_derivatives(monkeypatch)
    monkeypatch.setattr(census, "residues_mod_prime", lambda values, p: None)
    for param, verdict in zip(params, expected):
        del derivatives[:]
        assert has_triple_point(param) == verdict and derivatives
    with pytest.raises(DegenerateInputError, match="multiplicity >= 3"):
        double_point_census(params[-2])


# -- censuses ---------------------------------------------------------------------


def test_nodal_cubic_census():
    census = classify_curve_singularities(PlaneParameterization.parse(NODAL_CUBIC))
    assert census.total_length == 1
    (site,) = census.sites
    assert site.kind == "point" and site.delta == 1
    assert site.cusp_count == 0 and site.label == "A1"
    assert census.cusp_intersection_length == 0
    # the node's quadratic vanishes at the two parameter values s = +-t
    param = PlaneParameterization.parse(NODAL_CUBIC)
    assert site_quadratic(param, site) == param.ring.parse("s^2 - t^2")


def test_cuspidal_cubic_census():
    param = PlaneParameterization.parse(CUSPIDAL_CUBIC)
    census = classify_curve_singularities(param)
    (site,) = census.sites
    assert site.delta == 1 and site.cusp_count == 1 and site.label == "A2"
    assert census.cusp_intersection_length == 1
    # one double parameter value, s = 0
    assert site_quadratic(param, site) == param.ring.parse("s^2")


def test_fiber_form_discriminants_match_branch_counts():
    nodal = PlaneParameterization.parse(NODAL_CUBIC)
    census = double_point_census(nodal)
    x0, x1, x2 = census.sites[0].coords
    assert x1 * x1 - 4 * x0 * x2 != 0
    cuspidal = PlaneParameterization.parse(CUSPIDAL_CUBIC)
    census = double_point_census(cuspidal)
    x0, x1, x2 = census.sites[0].coords
    assert x1 * x1 - 4 * x0 * x2 == 0


def test_fiber_form_from_cross_products():
    param = sextic_param()
    # over the image of the marked double point, the fiber binary form is s*t
    form = fiber_form(param, (1, 0, 0))
    st = param.ring
    assert poly_gcd(form, st.parse("s*t")) == poly_gcd(form, form)


def test_sextic_census_full():
    census = classify_curve_singularities(sextic_param())
    assert census.total_length == 10
    assert census.point_count() == 8
    assert census.cusp_intersection_length == 0
    assert census.labels() == ["A1"] * 7 + ["A5"]
    point_sites = [s for s in census.sites if s.kind == "point"]
    assert len(point_sites) == 1
    assert point_sites[0].coords == (0, 1, 0)
    assert point_sites[0].delta == 3
    assert point_sites[0].image_point == (1, 0, 0)
    (cluster,) = [s for s in census.sites if s.kind == "cluster"]
    assert cluster.size == 7 and cluster.delta == 7


def test_oscnode_quartic_census():
    census = classify_curve_singularities(quartic_param(OSCNODE_QUARTIC_CENTER))
    assert census.labels() == ["A5"]
    (site,) = census.sites
    assert site.delta == 3 and site.image_point == (1, 0, 0)


def test_tacnode_quartic_census():
    census = classify_curve_singularities(quartic_param(TACNODE_QUARTIC_CENTER))
    assert census.labels() == ["A1", "A3"]
    deltas = sorted(site.delta for site in census.sites)
    assert deltas == [1, 2]


def test_census_refuses_improper_parameterization():
    with pytest.raises(DegenerateInputError):
        double_point_census(PlaneParameterization.parse("s^4; s^2*t^2; t^4"))


def test_classification_implicitizes_once(monkeypatch):
    import sys

    from oscurve.rational_curves import implicitize

    calls = []

    def counting(param, *args, **kwargs):
        calls.append(param)
        return implicitize(param, *args, **kwargs)

    # rebind the name in every module that imported it, so no call site is missed
    for name, module in list(sys.modules.items()):
        if name.startswith("oscurve") and getattr(module, "implicitize", None) is implicitize:
            monkeypatch.setattr(module, "implicitize", counting)
    census = classify_curve_singularities(PlaneParameterization.parse(NODAL_CUBIC))
    assert [site.label for site in census.sites] == ["A1"]
    assert len(calls) == 1


# -- curvilinearity ------------------------------------------------------------------


def test_curvilinear_length_three_scheme():
    ring = PolyRing(("u", "v", "w"))
    scheme = Ideal(ring, [ring.parse(t) for t in ("w^2", "v*w", "v^2 - u*w")])
    assert is_curvilinear_at(scheme, (1, 0, 0))
    assert is_curvilinear_at(scheme, (-3, 0, 0))


def test_non_curvilinear_length_five_scheme():
    ring = PolyRing(("u", "v", "w"))
    scheme = Ideal(ring, [ring.parse(t) for t in ("w^2", "v^2*w", "v^3 - u*v*w")])
    assert not is_curvilinear_at(scheme, (1, 0, 0))
    assert not is_curvilinear_at(scheme, (2, 0, 0))


def test_curvilinear_rejects_unsupported_point():
    ring = PolyRing(("u", "v", "w"))
    scheme = Ideal(ring, [ring.parse("v"), ring.parse("w")])
    with pytest.raises(DegenerateInputError):
        is_curvilinear_at(scheme, (0, 0, 1))


@pytest.mark.parametrize("point", [(0, 0, 1, 5), (1, 0)])
def test_curvilinear_refuses_a_point_of_the_wrong_length(point):
    ring = PolyRing(("u", "v", "w"))
    scheme = Ideal(ring, [ring.parse("v"), ring.parse("w")])
    with pytest.raises(DegenerateInputError, match="3 coordinates"):
        is_curvilinear_at(scheme, point)


def test_curvilinear_refuses_a_ring_outside_the_plane():
    ring = PolyRing(("a", "b", "c", "d"))
    scheme = Ideal(ring, [ring.parse(t) for t in ("b", "c", "d")])
    with pytest.raises(DegenerateInputError, match="3 variables"):
        is_curvilinear_at(scheme, (1, 0, 0, 0))


# -- mixed censuses and conjugate support, frozen from seeded searches ----------------

# a cluster of six conjugate double points, three of them cusps: the center
# meets the tangent lines of the rational normal quintic at the roots of
# u^3 - 2, at the points nu(u) + nu'(u)
MIXED_CLUSTER_QUINTIC = (
    "-13*s^5 + 3*s^4*t - 12*s^3*t^2 + 62*s^2*t^3; "
    "-9*s^5 - 17*s^4*t + 6*s^3*t^2 + 124*s*t^4; "
    "3*s^5 - 15*s^4*t - 2*s^3*t^2 + 124*t^5"
)
# the dual of the nodal cubic (u^2, u, u^3 - 2), whose flexes sit at the
# roots of u^3 - 2: three conjugate cusps
TRICUSPIDAL_QUARTIC = "2*s^3*t + 2*t^4; -s^4 - 4*s*t^3; -s^2*t^2"
MIXED_QUARTIC = "-s^4 + 2*s^2*t^2; -s^4 - 3*s^3*t - 2*s*t^3 - t^4; -2*s^4 + s^3*t - 2*s*t^3 - t^4"
CONJUGATE_NODES_QUARTIC = (
    "-3*s^4 - 3*s^3*t - s^2*t^2 - s*t^3 + 2*t^4; "
    "-3*s^4 + s^2*t^2 - 3*t^4; "
    "3*s^4 + 3*s^3*t + s*t^3 - 3*t^4"
)


def test_mixed_cusp_and_node_census():
    census = classify_curve_singularities(PlaneParameterization.parse(MIXED_QUARTIC))
    assert census.labels() == ["A1", "A1", "A2"]
    assert census.cusp_intersection_length == 1
    for site in census.sites:
        assert site.delta == 1
        assert (site.label == "A2") == (site.cusp_count == 1)


def test_conjugate_node_pair_splits_over_quadratic_extension():
    from oscurve.qfields import QuadExt

    census = classify_curve_singularities(
        PlaneParameterization.parse(CONJUGATE_NODES_QUARTIC)
    )
    assert census.labels() == ["A1", "A1", "A1"]
    assert all(site.kind == "point" for site in census.sites)
    irrational = [
        site
        for site in census.sites
        if any(isinstance(c, QuadExt) and c.b != 0 for c in site.coords)
    ]
    assert len(irrational) == 2
    a, b = irrational
    # the two sites are Galois conjugates, and so are their images
    assert [c.conjugate() if isinstance(c, QuadExt) else c for c in a.coords] == list(b.coords)
    assert [
        c.conjugate() if isinstance(c, QuadExt) else c for c in a.image_point
    ] == list(b.image_point)
    # every image point lies on the implicit curve
    from oscurve.qfields import QuadraticField
    from oscurve.rational_curves import implicitize

    F = implicitize(PlaneParameterization.parse(CONJUGATE_NODES_QUARTIC)).poly
    for site in census.sites:
        ext = next(
            (QuadraticField(c.d) for c in site.image_point if isinstance(c, QuadExt) and c.b != 0),
            None,
        )
        lifted = F.restrict(PolyRing(F.ring.variables, ext)) if ext else F
        coords = [lifted.ring.field.coerce(c) for c in site.image_point]
        assert lifted.evaluate(coords) == 0


@pytest.mark.parametrize("a", [1000, 10**12])
def test_height_tier_census_without_divisor_search(a):
    # once its root 0 is split off, the support eliminant's constant term is
    # about a^7 (10^21 at a = 1000): the roots come from p-adic lifting, where
    # a divisor search of that term would not finish
    from oscurve.qfields import QuadraticField, field_of

    param = PlaneParameterization.parse(
        f"s^4 + {a}*t^4; {a + 7}*s^3*t - s*t^3; {a - 3}*s^2*t^2 + t^4"
    )
    census = classify_curve_singularities(param)
    assert census.labels() == ["A1", "A1", "A1"]
    assert all(
        (site.kind, site.delta, site.cusp_count) == ("point", 1, 0) for site in census.sites
    )
    fields = [field_of(site.coords) for site in census.sites]
    assert sum(not isinstance(f, QuadraticField) for f in fields) == 1
    pair = [f for f in fields if isinstance(f, QuadraticField)]
    assert len(pair) == 2 and pair[0] == pair[1]


def test_fiber_parameters_over_quadratic_extensions():
    from fractions import Fraction

    from oscurve.qfields import QuadExt, QuadraticField, quadratic_roots

    param = PlaneParameterization.parse(CONJUGATE_NODES_QUARTIC)
    sites = double_point_census(param).sites
    (rational,) = [s for s in sites if s.coords == (1, 0, Fraction(1, 3))]
    # q = s^2 + t^2/3 has the simple roots +-1/3*sqrt(-3), outside QQ
    assert site_quadratic(param, rational) == param.ring.parse("3*s^2 + t^2")
    roots, field = quadratic_roots(*rational.coords)
    assert sorted(str(r) for r in roots) == ["-1/3*sqrt(-3)", "1/3*sqrt(-3)"]
    lifted = PlaneParameterization.parse(CONJUGATE_NODES_QUARTIC, field=field)
    for r in roots:
        image = lifted.evaluate((r, 1))
        assert [c / image[0] for c in image] == [1, Fraction(-11, 6), Fraction(-4, 3)]
    assert rational.image_point == (1, Fraction(-11, 6), Fraction(-4, 3))
    # the two sites in QQ(sqrt(42)) are fibers of the curve over that field,
    # and their roots would need a nested radical
    conjugate = [s for s in sites if s is not rational]
    assert len(conjugate) == 2
    lifted = PlaneParameterization.parse(CONJUGATE_NODES_QUARTIC, field=QuadraticField(42))
    for site in conjugate:
        assert any(isinstance(c, QuadExt) and c.d == 42 for c in site.coords)
        site_quadratic(lifted, site)
        assert quadratic_roots(*site.coords, QuadraticField(42)) is None


FALLBACK_POINTS = [(1, 0, 0), (0, 0, 1), (1, -1, 0), (1, 0, 1)]


def fallback_chart_schemes():
    """(fat, reduced): the squares of the ideals of FALLBACK_POINTS, and the
    ideals themselves, intersected.  The four points meet the lines z, y, x
    and x + y + z, so the radical and the census both need a chart line
    further down the list."""
    ring = PolyRing(("x", "y", "z"))
    fat = reduced = None
    for p in FALLBACK_POINTS:
        square = ideal_power(point_ideal(ring, p), 2)
        fat = square if fat is None else ideal_intersection(fat, square)
        simple = point_ideal(ring, p)
        reduced = simple if reduced is None else ideal_intersection(reduced, simple)
    return fat, reduced


def fallback_curvilinear_scheme():
    """A curvilinear scheme of length 3 at each of FALLBACK_POINTS: with u, v
    the linear forms of the point and l0 a coordinate nonzero there, the
    local coordinates l1 = u + v, l2 = v cut out (l1 + l2^2, l2^3) near it,
    that is (l0*l1 + l2^2) plus the cube of the point's ideal."""
    ring = PolyRing(("x", "y", "z"))
    scheme = None
    for p in FALLBACK_POINTS:
        u, v = point_ideal(ring, p).gens
        l0 = ring.gens()[next(i for i, c in enumerate(p) if c)]
        local = ideal_sum(Ideal(ring, [l0 * (u + v) + v * v]), ideal_power(point_ideal(ring, p), 3))
        scheme = local if scheme is None else ideal_intersection(scheme, local)
    return scheme


def test_support_in_a_fallback_chart():
    # z, y, x and the first candidate line x + y + z meet the support; the
    # chart of the second candidate reads it
    ring = PolyRing(("x", "y", "z"))
    points = FALLBACK_POINTS
    scheme = fallback_curvilinear_scheme()
    total, pieces = support_sites(scheme)
    assert total == scheme_length(scheme) == 12
    found, lines = set(), set()
    for piece in pieces:
        assert piece.size == 1
        (point,) = piece.points
        found.add(point)
        lines.add(piece.line)
        # the length that saturating by the point removes
        assert piece.delta == 3
        assert piece.delta == total - scheme_length(saturate(scheme, point_ideal(ring, point)))
    assert found == set(points)
    assert lines == {ring.parse("x + 2*y + 3*z")}


def test_support_refuses_a_scheme_that_is_not_curvilinear():
    # the square of a point's ideal has tangent dimension 2: no chart
    # coordinate generates its algebra, though the radical is still taken
    fat, reduced = fallback_chart_schemes()
    with pytest.raises(DegenerateInputError, match="no chart coordinate generates the chart algebra"):
        support_sites(fat)
    assert zero_dim_radical(fat) == reduced


def _radical_inputs():
    from oscurve.qfields import QuadExt, QuadraticField

    R3 = PolyRing(("x", "y", "z"))
    sqrt2 = PolyRing(("x", "y", "z"), QuadraticField(2))
    texts = [
        ("x^2", "y"),
        ("x^2", "x*y", "y^3"),
        ("(x - y)*(x - 2*y)*(y - 5*z)", "x*z - y^2"),
        ("x^2*z", "x*y*z", "y^2*z", "x^3", "y^3"),
    ]
    inputs = [Ideal(R3, [R3.parse(t) for t in gens]) for gens in texts]
    inputs.append(fallback_chart_schemes()[0])
    # over QQ(sqrt(2)): the points (+-sqrt(2) : 0 : 1), a double point at
    # (sqrt(2) : 1 : 1), and a point on z = 0
    x, y, z = sqrt2.gens()
    root = QuadExt(0, 1, 2)
    conjugate = Ideal(sqrt2, [x * x - z * z * 2, y])
    doubled = ideal_power(Ideal(sqrt2, [x - z * root, y - z]), 2)
    at_infinity = Ideal(sqrt2, [x - y, z])
    inputs.append(ideal_intersection(ideal_intersection(conjugate, doubled), at_infinity))
    inputs.append(multiple_point_scheme_ideal(sextic_param(), 2))
    return inputs


def missing_line(ideal):
    """The first of a few lines that misses the support of a plane scheme,
    by a basis of I + (l) from scratch."""
    ring = ideal.ring
    for text in ("z", "x + y + z", "x + 2*y + 3*z", "3*x - y + 2*z"):
        line = ring.parse(text)
        if is_empty_scheme(Ideal(ring, [*ideal.gens, line])):
            return line
    raise AssertionError("no line misses the support")


@pytest.mark.parametrize("index", range(7))
def test_radical_equals_the_saturation_reference(index):
    # the kernel read back from the chart radical against the reference
    # radical of a chart, homogenized with its line and saturated by it
    ideal = _radical_inputs()[index]
    radical = zero_dim_radical(ideal)
    assert radical.gens == radical.groebner_basis().polys
    line = missing_line(ideal)
    chart = radical_route_chart(ideal, line, _chart_coordinates(line)[0])[0]
    assert radical == projective_ideal_by_saturation(chart, line, ideal.ring)


def test_support_when_xc_does_not_separate():
    # two of the points lie on x = 0, so the chart coordinate x of the z
    # chart does not separate them; its other coordinate y does, in the
    # same chart
    ring = PolyRing(("x", "y", "z"))
    points = [(0, 0, 1), (0, 1, 1), (1, 2, 1)]
    reduced = None
    for p in points:
        simple = point_ideal(ring, p)
        reduced = simple if reduced is None else ideal_intersection(reduced, simple)
    total, pieces = support_sites(reduced)
    assert total == 3
    charts = {(piece.line, *piece.factor.used_variables()) for piece in pieces}
    assert charts == {(ring.var("z"), "y")}
    assert [piece.delta for piece in pieces] == [1, 1, 1]
    assert {piece.points[0] for piece in pieces} == set(points)


def test_census_takes_a_chart_off_the_z_line():
    # z meets the support at [0:1:0], so the next variable y gives the chart
    param = PlaneParameterization.parse("s^3 + t^3; s^2*t; s*t^2")
    ideal = multiple_point_scheme_ideal(param, 2)
    assert first_chart(ideal)[0] == ideal.ring.var("y")
    census = classify_curve_singularities(param)
    (site,) = census.sites
    assert (site.label, site.coords, site.image_point) == ("A1", (0, 1, 0), (1, 0, 0))
    assert census.total_length == 1


def test_support_over_a_quadratic_field_is_refused():
    from oscurve.qfields import QuadraticField

    ring = PolyRing(("x", "y", "z"), QuadraticField(2))
    with pytest.raises(DegenerateInputError):
        support_sites(Ideal(ring, [ring.parse("x^2 - 2*z^2"), ring.parse("y")]))


@pytest.mark.parametrize("name", ["tacnode", "sextic", "mixed-cluster"])
def test_local_lengths_match_saturation(name):
    param = {
        "tacnode": lambda: quartic_param(TACNODE_QUARTIC_CENTER),
        "sextic": sextic_param,
        "mixed-cluster": lambda: PlaneParameterization.parse(MIXED_CLUSTER_QUINTIC),
    }[name]()
    ideal = multiple_point_scheme_ideal(param, 2)
    total, pieces = support_sites(ideal)
    assert total == scheme_length(ideal)
    for piece in pieces:
        removed = scheme_length(saturate(ideal, site_ideal(piece, ideal.ring)))
        assert piece.delta == total - removed
    assert sum(piece.delta for piece in pieces) == total
    if name == "tacnode":  # the A3 point
        assert sorted(piece.delta for piece in pieces) == [1, 2]


@pytest.mark.parametrize(
    "text, size, cusps",
    [(MIXED_CLUSTER_QUINTIC, 6, 3), (TRICUSPIDAL_QUARTIC, 3, 3)],
    ids=["mixed-quintic", "tricuspidal-quartic"],
)
def test_cluster_cusp_count_matches_conic_length(text, size, cusps):
    param = PlaneParameterization.parse(text)
    census = classify_curve_singularities(param)
    (cluster,) = census.sites
    assert (cluster.kind, cluster.size, cluster.cusp_count) == ("cluster", size, cusps)
    assert cluster.label == ("A2" if cusps == size else None)
    ideal = multiple_point_scheme_ideal(param, 2)
    ring = ideal.ring
    _, (piece,) = support_sites(ideal)
    on_conic = ideal_sum(site_ideal(piece, ring), Ideal(ring, [cusp_conic(ring)]))
    assert scheme_length(on_conic) == cusps


def test_roadmap_octic_census():
    census = classify_curve_singularities(generator_param(8))
    assert census.total_length == 21
    assert census.labels() == ["A1"] * 19 + ["A4"]
    assert sorted(site.delta for site in census.sites) == [2, 19]


def test_roadmap_nonic_census():
    census = classify_curve_singularities(generator_param(9))
    assert census.total_length == 28 == census.delta_sum
    assert census.labels() == ["A1"] * 28


def test_census_runs_no_saturation_or_elimination(monkeypatch):
    import sys

    from oscurve import groebner

    calls = []
    for name in ("saturate", "eliminate", "_chart_image", "zero_dim_radical"):
        original = getattr(groebner, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        # rebind the name in every module that imported it
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("oscurve") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    for param in (sextic_param(), PlaneParameterization.parse(MIXED_CLUSTER_QUINTIC)):
        census = double_point_census(param)
        assert census.delta_sum == census.total_length
    assert calls == []


def test_census_values_survive_pickling():
    import pickle

    from oscurve.qfields import QuadExt

    census = classify_curve_singularities(
        PlaneParameterization.parse("s^4 + 10*t^4; 17*s^3*t - s*t^3; 7*s^2*t^2 + t^4")
    )
    assert any(
        isinstance(c, QuadExt) and c.b and c.d == -9912799
        for site in census.sites
        for c in site.coords or ()
    )
    assert pickle.loads(pickle.dumps(census)) == census


# -- the census's own paths against their Groebner oracles ---------------------------

CENSUS_INPUTS = {
    "nodal-cubic": lambda: PlaneParameterization.parse(NODAL_CUBIC),
    "cuspidal-cubic": lambda: PlaneParameterization.parse(CUSPIDAL_CUBIC),
    "sextic": sextic_param,
    "oscnode-quartic": lambda: quartic_param(OSCNODE_QUARTIC_CENTER),
    "tacnode-quartic": lambda: quartic_param(TACNODE_QUARTIC_CENTER),
    "mixed-cluster-quintic": lambda: PlaneParameterization.parse(MIXED_CLUSTER_QUINTIC),
    "tricuspidal-quartic": lambda: PlaneParameterization.parse(TRICUSPIDAL_QUARTIC),
    "mixed-quartic": lambda: PlaneParameterization.parse(MIXED_QUARTIC),
    "conjugate-nodes-quartic": lambda: PlaneParameterization.parse(CONJUGATE_NODES_QUARTIC),
    "height-1000": lambda: PlaneParameterization.parse(
        "s^4 + 1000*t^4; 1007*s^3*t - s*t^3; 997*s^2*t^2 + t^4"
    ),
    "height-10^12": lambda: PlaneParameterization.parse(
        f"s^4 + {10**12}*t^4; {10**12 + 7}*s^3*t - s*t^3; {10**12 - 3}*s^2*t^2 + t^4"
    ),
    "pickled-quartic": lambda: PlaneParameterization.parse(
        "s^4 + 10*t^4; 17*s^3*t - s*t^3; 7*s^2*t^2 + t^4"
    ),
    **{f"generator-{n}": (lambda n=n: generator_param(n)) for n in (6, 7, 8, 9)},
}


@pytest.mark.parametrize("name", sorted(set(CENSUS_INPUTS) - {"generator-9"}))
def test_shape_position_matches_the_lex_basis(name):
    # at n = 9 the lex basis alone takes about two minutes
    ideal = multiple_point_scheme_ideal(CENSUS_INPUTS[name](), 2)
    ring = ideal.ring
    _, pieces = support_sites(ideal)
    ((line, images, var),) = {(p.line, p.images, *p.factor.used_variables()) for p in pieces}
    pivot = line.used_variables()[-1]
    (other,) = set(ring.variables) - {pivot, var}
    radical, _, g, _ = radical_route_chart(ideal, line, var)
    product = ring.one()
    for piece in pieces:
        product = product * piece.factor
    assert product == g
    # lex with pivot > other > var: the ring lists them in that order
    swapped = PolyRing((pivot, other, var), ring.field)
    lex = Ideal(swapped, [p.restrict(swapped) for p in radical]).groebner_basis(TermOrder.lex())
    h = images[ring.index(other)]
    assert list(lex.polys[:2]) == [g.restrict(swapped), (ring.var(other) - h).restrict(swapped)]
    # and the pivot is the image that line = 1 gives it
    shape = [g] + [ring.var(w) - images[ring.index(w)] for w in (other, pivot)]
    shape = Ideal(swapped, [p.restrict(swapped) for p in shape])
    assert lex.polys == shape.groebner_basis(lex.order).polys


def test_census_makes_no_lex_basis_and_no_k3_scheme(monkeypatch):
    from oscurve import census, groebner

    orders, ks = [], []
    buchberger, matrix = groebner.buchberger, census.multiple_point_matrix

    def counting_buchberger(ideal, order=groebner.DEFAULT_ORDER):
        orders.append(order.kind)
        return buchberger(ideal, order)

    def counting_matrix(param, k):
        ks.append(k)
        return matrix(param, k)

    monkeypatch.setattr(groebner, "buchberger", counting_buchberger)
    monkeypatch.setattr(census, "multiple_point_matrix", counting_matrix)
    for name in ("sextic", "mixed-cluster-quintic", "tacnode-quartic"):
        classify_curve_singularities(CENSUS_INPUTS[name]())
    assert orders and "lex" not in orders
    assert ks == [2, 2, 2]


@pytest.mark.parametrize("name", sorted(CENSUS_INPUTS))
def test_conjugate_image_points_equal_the_direct_solve(name):
    param = CENSUS_INPUTS[name]()
    census = double_point_census(param)
    for site in census.sites:
        if site.kind == "point":
            assert site.image_point == _image_of_site(param, site.coords), site


def test_conjugate_image_points_are_taken_without_a_second_solve(monkeypatch):
    from oscurve import census as census_module

    calls = []
    solve = census_module._image_of_site

    def counting(param, coords):
        calls.append(coords)
        return solve(param, coords)

    monkeypatch.setattr(census_module, "_image_of_site", counting)
    census = double_point_census(CENSUS_INPUTS["conjugate-nodes-quartic"]())
    points = [site for site in census.sites if site.kind == "point"]
    conjugates = [site for site in points if field_of(site.coords) != QQ]
    assert conjugates and len(calls) == len(points) - len(conjugates) // 2


# -- one basis per scheme: the z chart read off the scheme's own basis -----------------

READ_SCHEMES = {
    **{
        name: (lambda build=build: multiple_point_scheme_ideal(build(), 2))
        for name, build in CENSUS_INPUTS.items()
    },
    # z-torsion: (x^2, x*y, y^2) at [0:0:1] plus z times more
    "z-torsion": lambda: Ideal(
        PolyRing(("x", "y", "z")),
        [PolyRing(("x", "y", "z")).parse(t) for t in ("x^2*z", "x*y*z", "y^2*z", "x^3", "y^3")],
    ),
    "fallback-chart": lambda: fallback_chart_schemes()[0],
}


@pytest.mark.parametrize("name", sorted(READ_SCHEMES))
def test_z_chart_reads_match_fresh_bases(name):
    from helpers import groebner_certificate

    ideal = READ_SCHEMES[name]()
    ring = ideal.ring
    z = ring.var("z")
    # z is the first chart line exactly when I + (z) is empty, by a basis of its own
    line, read = first_chart(ideal)
    assert (line == z) == is_empty_scheme(Ideal(ring, [*ideal.gens, z]))
    # the basis of I + (z - 1) read off I's passes the certificate and equals
    # the one that starts from I's, also where z meets the scheme
    chart = Ideal(ring, [*ideal.gens, z - ring.one()])
    last = _last_variable_chart(ideal.groebner_basis())
    groebner_certificate(chart, last)
    assert last.polys == ideal_sum(ideal, Ideal(ring, [z - ring.one()])).groebner_basis().polys
    if line == z:
        assert read.polys == last.polys
    else:
        groebner_certificate(Ideal(ring, [*ideal.gens, line - ring.one()]), read)


def test_census_runs_buchberger_from_scratch_only_on_the_scheme(monkeypatch):
    # every other basis is read off the scheme's (the z chart) or starts from
    # it (the sums I + (l) and I + (l - 1) of another line)
    from oscurve import census as census_module
    from oscurve import groebner

    scratch, current = [], []
    buchberger, engine = groebner.buchberger, groebner._buchberger_dicts

    def tracking_buchberger(ideal, order=groebner.DEFAULT_ORDER):
        current.append(ideal)
        try:
            return buchberger(ideal, order)
        finally:
            current.pop()

    def counting_engine(gen_dicts, packing, seed=()):
        if not seed:
            scratch.append(current[-1])
        return engine(gen_dicts, packing, seed)

    monkeypatch.setattr(groebner, "buchberger", tracking_buchberger)
    monkeypatch.setattr(groebner, "_buchberger_dicts", counting_engine)
    lines = []
    for name in sorted(set(CENSUS_INPUTS) - {"generator-9"}):
        del scratch[:]
        param = CENSUS_INPUTS[name]()
        ideal = multiple_point_scheme_ideal(param, 2)
        monkeypatch.setattr(census_module, "multiple_point_scheme_ideal", lambda *_: ideal)
        double_point_census(param)
        assert [s.gens for s in scratch] == [ideal.gens], name
        lines.append(first_chart(ideal)[0])
    # most schemes miss z, whose chart takes no Buchberger run at all
    z = PolyRing(("x", "y", "z")).var("z")
    assert lines.count(z) >= 9


def bench_census_texts(monkeypatch):
    """The benchmark's census inputs for seeds 1-5; skips without a benchmark
    checkout next to the tests."""
    import importlib.util
    import sys
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "bench" / "cases.py"
    if not path.exists():
        pytest.skip("no benchmark checkout next to the tests")
    spec = importlib.util.spec_from_file_location("bench_cases", path)
    cases = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, cases)  # its dataclasses look themselves up there
    spec.loader.exec_module(cases)
    return sorted({text for seed in range(1, 6) for _, text in cases.census_inputs(seed)})


def test_census_chart_characteristic_polynomials_agree_with_the_field_route(monkeypatch):
    # every chart matrix of the benchmark's census inputs for seeds 1-5,
    # against the Hessenberg route over QQ
    from oscurve import groebner
    from helpers import field_characteristic_polynomial

    texts = bench_census_texts(monkeypatch)
    seen = []
    charpoly = groebner.characteristic_polynomial

    def recording(rows):
        seen.append((rows, charpoly(rows)))
        return seen[-1][1]

    monkeypatch.setattr(groebner, "characteristic_polynomial", recording)
    for text in texts:
        double_point_census(PlaneParameterization.parse(text))
    assert len(texts) > 30 and max(len(rows) for rows, _ in seen) == 15
    for rows, chi in seen:
        assert chi == field_characteristic_polynomial(rows)


# -- one chart algebra per chart: the census against the radical route ---------------


def census_charts(monkeypatch, params):
    """[ideal, line, var, chart_algebra's result, h] for every chart
    coordinate var that the census of each parameterization reads, in the
    chart of the line: h, with other = h(var) on the support for the other
    chart coordinate, is that of the sites that the census took from it,
    None for a coordinate it passed over."""
    from oscurve import census as census_module

    charts, current = [], []
    read, support, finite = (
        census_module.chart_algebra,
        census_module.support_sites,
        census_module._finite_chart,
    )

    def recording_lines(ideal, forms):
        for line, chart in finite(ideal, forms):
            current[:] = [ideal, line]
            yield line, chart

    def recording(chart, var):
        charts.append([*current, var, read(chart, var), None])
        return charts[-1][3]

    def marking(ideal):
        total, pieces = support(ideal)
        for piece in pieces:
            _, line, var, _, _ = charts[-1]
            assert (piece.line, piece.factor.used_variables()) == (line, [var])
            (other,) = set(ideal.ring.variables) - {var, line.used_variables()[-1]}
            charts[-1][4] = piece.images[ideal.ring.index(other)]
        return total, pieces

    monkeypatch.setattr(census_module, "_finite_chart", recording_lines)
    monkeypatch.setattr(census_module, "chart_algebra", recording)
    monkeypatch.setattr(census_module, "support_sites", marking)
    for param in params:
        double_point_census(param)
    return charts


def assert_routes_agree(charts):
    """Every chart coordinate against the radical route
    (`radical_route_chart`): the same chi and g, and the census's h equal to
    the reference h.  For a coordinate var the census passed over, 1, var,
    ..., var^(m-1) are dependent modulo the chart ideal, m its length: var
    does not generate the chart algebra."""
    from helpers import linear_relations

    for ideal, line, var, (chi, g, m), h in charts:
        _, ref_chi, ref_g, ref_h = radical_route_chart(ideal, line, var)
        assert (chi, g) == (ref_chi, ref_g)
        if h is not None:
            assert h == ref_h
        elif g.degree():
            ring = ideal.ring
            powers = [ring.var(var) ** i for i in range(len(m[0]))]
            chart = Ideal(ring, [*ideal.gens, line - ring.one()])
            assert linear_relations(chart.groebner_basis(), powers)


ROUTE_INPUTS = {**CENSUS_INPUTS, "generator-10": lambda: generator_param(10)}


@pytest.mark.parametrize("name", sorted(ROUTE_INPUTS))
def test_chart_routes_agree(monkeypatch, name):
    charts = census_charts(monkeypatch, [ROUTE_INPUTS[name]()])
    assert charts
    assert_routes_agree(charts)


def test_chart_routes_agree_on_the_benchmark_inputs(monkeypatch):
    texts = bench_census_texts(monkeypatch)
    charts = census_charts(monkeypatch, [PlaneParameterization.parse(t) for t in texts])
    assert_routes_agree(charts)
    # squarefree and non-squarefree chi_x both occur
    squarefree = [chi == g for _, _, _, (chi, g, _), _ in charts]
    assert any(squarefree) and not all(squarefree)


@pytest.mark.parametrize("name", ["tacnode-quartic", "nodal-cubic"])
def test_chart_routes_catch_a_mutated_shape_line(monkeypatch, name):
    # h + 1 in place of h, with chi_x not squarefree (the A3 of the
    # tacnode quartic) and squarefree (the node of the cubic)
    from oscurve import census as census_module

    shape = census_module._shape_line

    def shifted(chart, *args):
        h = shape(chart, *args)
        return None if h is None else h + chart.ring.one()

    monkeypatch.setattr(census_module, "_shape_line", shifted)
    charts = census_charts(monkeypatch, [CENSUS_INPUTS[name]()])
    assert any(chi != g for _, _, _, (chi, g, _), _ in charts) == (name == "tacnode-quartic")
    with pytest.raises(AssertionError):
        assert_routes_agree(charts)


@pytest.mark.parametrize(
    "build, routes, sites",
    [
        # two of the three nodes share x in the z chart; its y separates them
        (
            lambda: PlaneParameterization.parse("s^4 + 10*t^4; 17*s^3*t - s*t^3; 7*s^2*t^2 + t^4"),
            [(3, 2, None), (3, 3, 2)],
            [
                "[1 : 0 : -1/17]  delta=1  A1",
                "[1 : -1/24*sqrt(-9912799) : -1189/24]  delta=1  A1",
                "[1 : 1/24*sqrt(-9912799) : -1189/24]  delta=1  A1",
            ],
        ),
        # the generator's A4, a point of length 2
        (
            lambda: generator_param(8),
            [(21, 20, 19)],
            ["[1 : 0 : 0]  delta=2  A4", ("cluster", 19, 19, "A1")],
        ),
        # two cusps, one of them an A4
        (
            lambda: PlaneParameterization.parse("s^2*t^2; s^4; t^4 + s*t^3"),
            [(3, 2, -1)],
            ["[0 : 0 : 1]  delta=1  A2", "[1 : 0 : 0]  delta=2  A4"],
        ),
    ],
    ids=["shared-xc", "generator-8", "cusps"],
)
def test_census_without_a_squarefree_chi_reads_the_chart_algebra_once(
    monkeypatch, build, routes, sites
):
    param = build()
    charts = census_charts(monkeypatch, [param])
    # (deg chi, deg g, deg h) per chart coordinate: h is None when the
    # coordinate does not generate the chart algebra, and deg h = -1 when h = 0
    degrees = [
        (chi.degree(), g.degree(), None if h is None else h.degree())
        for _, _, _, (chi, g, _), h in charts
    ]
    assert degrees == routes
    census = classify_curve_singularities(param)
    pinned = [
        site.describe() if site.kind == "point" else (site.kind, site.size, site.delta, site.label)
        for site in census.sites
    ]
    assert pinned == sites
    assert census.delta_sum == census.total_length


def test_shape_line_refuses_a_coordinate_that_does_not_generate():
    from oscurve.groebner import _shape_line

    # the fat point (x^2, x*y, y^2) in the z chart: x is nilpotent, and v_2 = x^2 = 0
    ring = PolyRing(("x", "y", "z"))
    fat = Ideal(ring, [ring.parse(t) for t in ("x^2", "x*y", "y^2")])
    line, chart = first_chart(fat)
    assert line == ring.var("z")
    chi, _, m = chart_algebra(chart, "x")
    assert chi == ring.parse("x^3")
    assert _shape_line(chart, m, "x", "y") is None
    # two of the pickled quartic's three nodes share x in the z chart: the
    # v_i are nonzero and dependent
    ideal = multiple_point_scheme_ideal(CENSUS_INPUTS["pickled-quartic"](), 2)
    line, chart = first_chart(ideal)
    assert line == ring.var("z")
    chi, g, m = chart_algebra(chart, "x")
    assert (chi.degree(), g.degree()) == (3, 2)
    assert _shape_line(chart, m, "x", "y") is None


def test_squarefree_chi_runs_no_second_characteristic_polynomial_or_basis(monkeypatch):
    # one characteristic polynomial per chart and no basis beyond the
    # chart's, whether chi_x is squarefree or not
    from oscurve import groebner

    runs, chis = [], []
    engine, charpoly = groebner._buchberger_dicts, groebner.characteristic_polynomial

    def counting_engine(gen_dicts, packing, seed=()):
        runs.append(bool(seed))
        return engine(gen_dicts, packing, seed)

    def counting_charpoly(rows):
        chis.append(len(rows))
        return charpoly(rows)

    monkeypatch.setattr(groebner, "_buchberger_dicts", counting_engine)
    monkeypatch.setattr(groebner, "characteristic_polynomial", counting_charpoly)
    for name, squarefree in [
        ("generator-9", True),
        ("conjugate-nodes-quartic", True),
        ("sextic", False),
    ]:
        ideal = multiple_point_scheme_ideal(CENSUS_INPUTS[name](), 2)
        ideal.groebner_basis()
        del runs[:], chis[:]
        line, chart = first_chart(ideal)
        assert (line == ideal.ring.var("z")) == squarefree
        # the z chart's basis is read off the scheme's; the chart of another
        # line takes two runs that start from it, for I + (l) and I + (l - 1)
        assert runs == ([] if squarefree else [True, True])
        chi, g, (basis, _) = chart_algebra(chart, _chart_coordinates(line)[0])
        assert (chi == g) == squarefree
        assert chis == [chi.degree()] == [len(basis)]
        assert runs == ([] if squarefree else [True, True])


def test_census_takes_no_radical(monkeypatch):
    # no second coordinate's chi but where the first does not generate, one
    # characteristic polynomial per chart coordinate, and no sum or seeded
    # Buchberger run but a chart line's emptiness test and chart basis
    from oscurve import census as census_module
    from oscurve import groebner

    sums, steps, chis, seeded, reads = [], [], [], [], []
    originals = (
        groebner.ideal_sum,
        groebner._multiplication_matrix,
        groebner.characteristic_polynomial,
        groebner._buchberger_dicts,
        census_module.chart_algebra,
    )
    add, matrix_of, charpoly, engine, read = originals

    def recording_sum(a, b):
        sums.append(b.gens)
        return add(a, b)

    def recording_matrix(gb, var):
        steps.append(var)
        return matrix_of(gb, var)

    def recording_charpoly(rows):
        chis.append(len(rows))
        return charpoly(rows)

    def recording_engine(gen_dicts, packing, seed=()):
        seeded.append(bool(seed))
        return engine(gen_dicts, packing, seed)

    def recording_read(chart, var):
        reads.append(read(chart, var))
        return reads[-1]

    monkeypatch.setattr(groebner, "ideal_sum", recording_sum)
    monkeypatch.setattr(groebner, "_multiplication_matrix", recording_matrix)
    monkeypatch.setattr(groebner, "characteristic_polynomial", recording_charpoly)
    monkeypatch.setattr(groebner, "_buchberger_dicts", recording_engine)
    monkeypatch.setattr(census_module, "chart_algebra", recording_read)
    for name in sorted(set(CUSP_INPUTS) - {"generator-9"}):
        double_point_census(CUSP_INPUTS[name]())
    assert len(steps) == len(reads)
    assert chis == [len(basis) for _, _, (basis, _) in reads]
    assert all(len(gens) == 1 and gens[0].degree() == 1 for gens in sums)
    assert sum(seeded) == len(sums)
    # charts with and without a squarefree chi
    assert {chi == g for chi, g, _ in reads} == {True, False}


def test_chart_algebra_without_the_prime_certificate_takes_the_exact_test(monkeypatch):
    # the certificate in `poly_gcd` is one-sided: when it proves nothing, the
    # pseudo-remainder gcd decides whether chi_x is squarefree, with the same results
    from oscurve import groebner, polyops

    ideals = [multiple_point_scheme_ideal(CENSUS_INPUTS[n](), 2) for n in ("generator-7", "sextic")]
    charts = [first_chart(ideal) for ideal in ideals]
    coordinates = [groebner._chart_coordinates(line)[0] for line, _ in charts]
    certified = [chart_algebra(chart, var) for (_, chart), var in zip(charts, coordinates)]
    refused = []
    monkeypatch.setattr(polyops, "coprime_mod_prime", lambda p, q: refused.append(p) or False)
    for (_, chart), var, read in zip(charts, coordinates, certified):
        assert chart_algebra(chart, var) == read
    assert refused


# -- the cusp-conic length from the sites, against the basis of I + (conic) ------------

A2_A4_QUARTIC = "s^4; s^2*t^2; t^4 + s*t^3"
CUSP_INPUTS = {**CENSUS_INPUTS, "a2-a4-quartic": lambda: PlaneParameterization.parse(A2_A4_QUARTIC)}


def conic_sum_length(param):
    ideal = multiple_point_scheme_ideal(param, 2)
    return scheme_length(ideal_sum(ideal, Ideal(ideal.ring, [cusp_conic(ideal.ring)])))


def buchberger_runs_after_the_support(monkeypatch):
    """A list that records each Buchberger run once `support_sites` has
    returned (True for a run that starts from a basis), and the census to run."""
    from oscurve import census as census_module
    from oscurve import groebner

    runs, done = [], []
    engine, support = groebner._buchberger_dicts, census_module.support_sites

    def counting_engine(gen_dicts, packing, seed=()):
        if done:
            runs.append(bool(seed))
        return engine(gen_dicts, packing, seed)

    def marking_support(ideal):
        sites = support(ideal)
        done.append(True)
        return sites

    def census(param):
        del runs[:], done[:]
        return double_point_census(param)

    monkeypatch.setattr(groebner, "_buchberger_dicts", counting_engine)
    monkeypatch.setattr(census_module, "support_sites", marking_support)
    return runs, census


def has_deeper_point_on_the_conic(census):
    return any(site.cusp_count and site.delta != site.size for site in census.sites)


@pytest.mark.parametrize("name", sorted(CUSP_INPUTS))
def test_cusp_length_equals_the_length_of_the_conic_sum(monkeypatch, name):
    param = CUSP_INPUTS[name]()
    runs, census = buchberger_runs_after_the_support(monkeypatch)
    length = census(param).cusp_intersection_length
    # every cusp meets the conic with length 1, deeper ones (the A4s of
    # a2-a4-quartic and generator-8) too: no Groebner basis after the support
    assert runs == []
    assert length == conic_sum_length(param)
    pinned = {"cuspidal-cubic": 1, "a2-a4-quartic": 2, "generator-8": 1, "generator-9": 0}
    assert length == pinned.get(name, length)


def sparse_params(count, seed):
    """Seeded parameterizations of degree 4 to 6 with coefficients +-1 or +-2,
    each term kept with probability 0.45, that the census accepts."""
    import random

    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(4, 6)
        rows = [
            [rng.choice((-2, -1, 1, 2)) if rng.random() < 0.45 else 0 for _ in range(n + 1)]
            for _ in range(3)
        ]
        if not all(any(row) for row in rows):
            continue
        text = "; ".join(
            " + ".join(f"{c}*s^{n - k}*t^{k}" for k, c in enumerate(row) if c) for row in rows
        )
        try:
            param = PlaneParameterization.parse(text)
            out.append((param, double_point_census(param)))
        except DegenerateInputError:
            continue
    return out


def test_cusp_length_on_seeded_sparse_curves():
    censuses = sparse_params(80, seed=3)
    for param, census in censuses:
        assert census.cusp_intersection_length == conic_sum_length(param), param
    # some census has a deeper point on the conic, an A4 or A6
    assert any(has_deeper_point_on_the_conic(census) for _, census in censuses)
    assert any(census.cusp_intersection_length for _, census in censuses)


# -- census labels against the implicit classifier, two independent routes ------------


def classifier_label(F, point):
    """A_s from `classify_double_point` on F at a point, over the point's field."""
    field = field_of(point)
    if field != F.ring.field:
        F = F.restrict(PolyRing(F.ring.variables, field))
    verdict, _ = classify_double_point(F, point)
    return f"A{verdict.s}" if verdict.kind == "double_point" else None


@pytest.mark.parametrize("inputs", ["census-inputs", 1, 2, 3, 4, 5])
def test_census_labels_match_the_classifier(inputs):
    # the census labels a point by its local length delta and the conic; the
    # classifier works on the implicit equation F at the image point alone
    if inputs == "census-inputs":
        params = [build() for build in CUSP_INPUTS.values()]
    else:
        params = [param for param, _ in sparse_params(60, seed=inputs)]
    deep = set()
    for param in params:
        census = classify_curve_singularities(param)
        F = param.implicit.poly
        for site in census.sites:
            if site.kind == "point":
                assert site.image_point is not None, param
                assert classifier_label(F, site.image_point) == site.label, (param, site)
                assert (int(site.label[1:]) + 1) // 2 == site.delta
                if site.delta > 1:
                    deep.add(site.label)
    expected = {"census-inputs": {"A3", "A4", "A5"}}
    assert deep >= expected.get(inputs, {"A4"}), deep


def test_census_labels_call_no_classifier(monkeypatch):
    import sys

    from oscurve import classifier

    calls = []
    original = classifier.classify_double_point

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # rebind the name in every module that imported it, so no call site is missed
    for name, module in list(sys.modules.items()):
        if name.startswith("oscurve") and getattr(module, "classify_double_point", None) is original:
            monkeypatch.setattr(module, "classify_double_point", counting)
    labels = [
        classify_curve_singularities(CUSP_INPUTS[name]()).labels()
        for name in ("sextic", "tacnode-quartic", "a2-a4-quartic", "generator-8")
    ]
    assert labels == [["A1"] * 7 + ["A5"], ["A1", "A3"], ["A2", "A4"], ["A1"] * 19 + ["A4"]]
    assert calls == []
