"""Multiple-point schemes and the singularity census."""

import pytest

from oscurve.census import (
    classify_curve_singularities,
    cusp_conic,
    double_point_census,
    has_triple_point,
    is_curvilinear_at,
    multiple_point_matrix,
    multiple_point_scheme_ideal,
    support_sites,
)
from oscurve.errors import DegenerateInputError, OscurveError
from oscurve.groebner import (
    Ideal,
    TermOrder,
    chart_radical,
    from_chart,
    ideal_intersection,
    ideal_power,
    ideal_sum,
    is_empty_scheme,
    saturate,
    scheme_length,
    zero_dim_radical,
)
from oscurve.polyops import poly_gcd, poly_normalize
from oscurve.rational_curves import (
    PlaneParameterization,
    ambient_ring,
    parameterization_from_center,
    point_ideal,
)
from oscurve.rings import PolyRing

from helpers import has_triple_point_grevlex

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
    assert poly_normalize(param.fiber_form(site.image_point)) == quadratic
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


def site_ideal(piece, matrix, ring):
    """Homogeneous ideal of one support piece: the points yc = h(xc) over
    the roots of the piece's factor, back from the chart."""
    yc = piece.factor.ring.var("yc")
    return from_chart([piece.factor, yc - piece.h_line], matrix, ring)


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


def test_triple_point_gate_decides_double_point_curves_modulo_the_prime(monkeypatch):
    params = {name: CENSUS_INPUTS[name]() for name in CENSUS_INPUTS}
    for param in params.values():
        param.implicit
    calls = _count_exact_gcds(monkeypatch)
    for name, param in params.items():
        assert not has_triple_point(param), name
    assert calls == []
    # a triple point at an affine parameter is confirmed by the exact gcd
    param = PlaneParameterization.parse("t^4; s^3*t; s^4")
    second, point = _second_partials_at_infinity(param)
    assert any(h.evaluate(point) for h in second)
    assert has_triple_point(param) and calls


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
    form = param.fiber_form((1, 0, 0))
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


def test_census_delta_matches_classifier_type():
    # delta = ceil(s/2) is asserted inside the labeling step; a successful
    # sextic run means every site passed the cross-check
    census = classify_curve_singularities(sextic_param())
    for site in census.sites:
        if site.label and site.kind == "point":
            s = int(site.label[1:])
            assert (s + 1) // 2 == site.delta


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


def test_support_in_a_fallback_chart():
    from oscurve.census import _projective_from_chart

    # the four points meet the lines z, y, x and x + y + z, so the radical
    # and the census both need a chart line further down the list
    ring = PolyRing(("x", "y", "z"))
    points = [(1, 0, 0), (0, 0, 1), (1, -1, 0), (1, 0, 1)]
    fat = reduced = None
    for p in points:
        square = ideal_power(point_ideal(ring, p), 2)
        fat = square if fat is None else ideal_intersection(fat, square)
        simple = point_ideal(ring, p)
        reduced = simple if reduced is None else ideal_intersection(reduced, simple)
    radical = zero_dim_radical(fat)
    assert radical == reduced
    total = scheme_length(fat)
    found = set()
    for piece, matrix in support_sites(fat):
        assert piece.size == 1
        point = _projective_from_chart(piece.chart_points[0], matrix)
        found.add(point)
        # a double point of the plane has length 3, as the saturation route
        # (the length that saturating by the point removes) confirms
        assert piece.delta == 3
        assert piece.delta == total - scheme_length(saturate(fat, point_ideal(ring, point)))
    assert found == set(points)


def test_support_when_xc_does_not_separate():
    from oscurve.census import _projective_from_chart
    from oscurve.groebner import chart_matrix

    # two of the points lie on x = 0, and xc = x / ell in every chart, so
    # only a chart with its kernel coordinates swapped separates them
    ring = PolyRing(("x", "y", "z"))
    points = [(0, 0, 1), (0, 1, 1), (1, 2, 1)]
    reduced = None
    for p in points:
        simple = point_ideal(ring, p)
        reduced = simple if reduced is None else ideal_intersection(reduced, simple)
    pieces = support_sites(reduced)
    z_chart = chart_matrix(ring.var("z"))
    assert {matrix for _, matrix in pieces} == {tuple((b, a, c) for a, b, c in z_chart)}
    assert [piece.delta for piece, _ in pieces] == [1, 1, 1]
    found = {_projective_from_chart(piece.chart_points[0], matrix) for piece, matrix in pieces}
    assert found == set(points)


@pytest.mark.parametrize("name", ["tacnode", "sextic", "mixed-cluster"])
def test_local_lengths_match_saturation(name):
    param = {
        "tacnode": lambda: quartic_param(TACNODE_QUARTIC_CENTER),
        "sextic": sextic_param,
        "mixed-cluster": lambda: PlaneParameterization.parse(MIXED_CLUSTER_QUINTIC),
    }[name]()
    ideal = multiple_point_scheme_ideal(param, 2)
    total = scheme_length(ideal)
    pieces = support_sites(ideal)
    for piece, matrix in pieces:
        removed = scheme_length(saturate(ideal, site_ideal(piece, matrix, ideal.ring)))
        assert piece.delta == total - removed
    assert sum(piece.delta for piece, _ in pieces) == total
    if name == "tacnode":  # the A3 point
        assert sorted(piece.delta for piece, _ in pieces) == [1, 2]


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
    ((piece, matrix),) = support_sites(ideal)
    on_conic = ideal_sum(site_ideal(piece, matrix, ring), Ideal(ring, [cusp_conic(ring)]))
    assert scheme_length(on_conic) == cusps


def test_roadmap_octic_census():
    census = classify_curve_singularities(generator_param(8))
    assert census.total_length == 21
    assert census.labels() == ["A1"] * 19 + ["A4"]
    assert sorted(site.delta_total for site in census.sites) == [2, 19]


def test_roadmap_nonic_census():
    census = classify_curve_singularities(generator_param(9))
    assert census.total_length == 28 == census.delta_sum
    assert census.labels() == ["A1"] * 28


def test_census_runs_no_saturation_or_elimination(monkeypatch):
    import sys

    from oscurve import groebner

    calls = []
    for name in ("saturate", "eliminate", "from_chart", "zero_dim_radical"):
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
    pieces = support_sites(ideal)
    (matrix,) = {matrix for _, matrix in pieces}
    (h_line,) = {piece.h_line for piece, _ in pieces}
    radical, _, g = chart_radical(ideal, matrix)
    product = radical.ring.one()
    for piece, _ in pieces:
        product = product * piece.factor
    assert product == g
    yc = radical.ring.var("yc")
    assert list(radical.groebner_basis(TermOrder.lex(("yc", "xc"))).polys) == [g, yc - h_line]


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
