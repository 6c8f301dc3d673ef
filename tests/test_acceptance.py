"""Acceptance suite.

One test per criterion; arithmetic is exact, so every comparison is literal
equality (zero tolerance).  Each test prints its own PASS line so a verbose
run reads as a checklist; stated runtime budgets are asserted with wall-clock
measurements.
"""

import random
import time
from fractions import Fraction
from math import comb

from oscurve.census import (
    classify_curve_singularities,
    cusp_conic,
    is_curvilinear_at,
    multiple_point_scheme_ideal,
)
from oscurve.classifier import classify_double_point, projective_ring
from oscurve.errors import DegenerateInputError
from oscurve.groebner import (
    Ideal,
    hilbert_function,
    ideal_power,
    ideal_sum,
    scheme_length,
    zero_dim_radical,
)
from oscurve.intersection import (
    GraphCurve,
    branch_separation,
    graph_intersection_multiplicity,
    truncated_local_multiplicity,
)
from oscurve.polyops import matrix_inverse, matrix_rank
from oscurve.qfields import QQ, QuadExt, QuadraticField
from oscurve.rational_curves import (
    ambient_ring,
    cone_fiber_test,
    parameterization_from_center,
    point_ideal,
    project_scheme,
    rational_normal_curve_ideal,
)
from oscurve.rings import INF, PolyRing

from helpers import degree_slice_members

R3 = projective_ring()
R2 = PolyRing(("x", "y"))
OSCNODE = "x1^2*x2^2 - 2*x0^2*x1*x2 + x0^4 + x0^2*x1^2"


def report(number, description):
    print(f"criterion {number} ({description}): PASS")


def normal_form_curve(s):
    return R3.parse("x1^2 - x0^2" if s == 1 else f"x1^2*x2^{s - 1} - x0^{s + 1}")


def test_criterion_01_oscnode_quartic():
    start = time.monotonic()
    verdict, trace = classify_double_point(R3.parse(OSCNODE), (0, 0, 1))
    assert verdict.label == "A5"
    assert verdict.tangent == R2.parse("y")  # unique tangent y = 0 at step 1
    step2 = next(s for s in trace if s.r == 2)
    assert step2.lam == Fraction(1)  # unique osculating conic y = x^2
    assert verdict.witness_field == QuadraticField(-1)
    witness_coeffs = {tuple(w.coefficients) for w in verdict.witnesses}
    i_unit = QuadExt(0, 1, -1)
    zero, one = Fraction(0), Fraction(1)
    assert witness_coeffs == {(zero, one, i_unit), (zero, one, -i_unit)}

    # contact orders recomputed from scratch over QQ(sqrt(-1))
    K = QuadraticField(-1)
    ring = PolyRing(("x", "y"), K)
    f = ring.parse("y^2 - 2*x^2*y + x^4 + x^2*y^2")
    d1 = GraphCurve([K.zero, K.one, K.coerce(-i_unit)])
    d2 = GraphCurve([K.zero, K.one, K.coerce(i_unit)])
    assert graph_intersection_multiplicity(f, d1) == 7
    assert graph_intersection_multiplicity(f, d2) == 7
    assert branch_separation(d1, d2) == 3

    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report(1, "oscnode quartic: A5, tangent, conic, conjugate cubics, contact orders")


def test_criterion_02_normal_form_sweep():
    start = time.monotonic()
    for s in range(1, 13):
        verdict, _ = classify_double_point(normal_form_curve(s), (0, 0, 1))
        assert verdict.label == f"A{s}"
        assert verdict.stopped_at_step == (s + 1) // 2
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report(2, "normal forms s=1..12 classified as A_s at the expected step")


def test_criterion_03_remark_curves():
    v4, _ = classify_double_point(R3.parse("x1^2*x2^3 - x0^5"), (0, 0, 1))
    assert v4.label == "A4"
    v3, trace = classify_double_point(R3.parse("x1^2*x2^2 - x1*x0^2*x2"), (0, 0, 1))
    assert v3.label == "A3"
    assert trace[0].multiplicity == INF  # the tangent line is a component
    report(3, "repeated-tangent quintic is A4; component tacnode is A3 with an inf branch")


SEXTIC_NAMES = tuple("abcdefg")


def _sextic_data():
    amb = PolyRing(SEXTIC_NAMES)
    a, b, c, d, e, f, g = amb.gens()
    center = [a + g, 3 * f - b - d, 9 * e + c - d]
    return amb, center


def test_criterion_04_projection_construction():
    start = time.monotonic()
    amb, center = _sextic_data()
    a, b, c, d, e, f, g = amb.gens()
    curve = rational_normal_curve_ideal(6, SEXTIC_NAMES)
    through = Ideal(amb, [b, c, d, e, f])

    proj3 = project_scheme(ideal_sum(ideal_power(through, 3), curve), center)
    expected3 = Ideal(proj3.ring, [proj3.ring.parse(t) for t in ("w^2", "v*w", "v^2 - u*w")])
    assert proj3 == expected3
    assert scheme_length(proj3) == 3

    proj4 = project_scheme(ideal_sum(ideal_power(through, 4), curve), center)
    assert scheme_length(proj4) == 5
    assert not is_curvilinear_at(proj4, (1, 0, 0))

    projR = project_scheme(point_ideal(amb, [1] * 7), center)
    expectedR = Ideal(projR.ring, [projR.ring.parse("v - 1/9*w"), projR.ring.parse("u - 2/9*w")])
    assert projR == expectedR

    fiber = cone_fiber_test(6, center, [1] * 7, SEXTIC_NAMES)
    assert fiber.image_point == (Fraction(2), Fraction(1), Fraction(9))
    assert fiber.single_reduced_point

    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    report(4, "contact-scheme projections, length-5 non-curvilinear image, cone fiber")


def test_criterion_05_sextic_census():
    start = time.monotonic()
    amb, center = _sextic_data()
    param = parameterization_from_center(6, center, SEXTIC_NAMES)

    ix2 = multiple_point_scheme_ideal(param, 2)
    hd = hilbert_function(ix2, upto=5)
    assert hd.values[:4] == (1, 3, 6, 10)
    assert hd.stable_value == 10 and hd.stable_from == 3

    rad = zero_dim_radical(ix2)
    assert hilbert_function(rad).stable_value == 8

    icusp = ideal_sum(ix2, Ideal(ix2.ring, [cusp_conic(ix2.ring)]))
    hc = hilbert_function(icusp, upto=6)
    assert hc.values == (1, 3, 5, 7, 4, 0, 0)
    assert hc.stable_value == 0 and hc.stable_from == 5

    census = classify_curve_singularities(param)
    deltas = sorted(
        site.delta if site.kind == "point" else site.delta // site.size
        for site in census.sites
        for _ in range(site.size)
    )
    assert deltas == [1] * 7 + [3]
    assert census.labels() == ["A1"] * 7 + ["A5"]

    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"took {elapsed:.2f}s"
    report(5, "sextic Hilbert data 1,3,6,10 / radical 8 / empty cusp cut; A5 + 7 nodes")


def test_criterion_06_length_law_on_random_projections():
    rng = random.Random(20260808)
    degrees = [4, 4, 4, 4, 5, 5, 5, 6, 6, 6]
    verified = 0
    for n in degrees:
        while True:
            ring = ambient_ring(n)
            forms = []
            for _ in range(3):
                form = ring.zero()
                for gen in ring.gens():
                    form = form + gen * rng.randint(-4, 4)
                forms.append(form)
            try:
                param = parameterization_from_center(n, forms)
                if not param.proper:
                    continue
            except DegenerateInputError:
                continue
            length = scheme_length(multiple_point_scheme_ideal(param, 2))
            assert length == comb(n - 1, 2), (n, length)
            verified += 1
            break
    assert verified >= 10
    report(6, f"double-point scheme length equals C(n-1,2) on {verified} random projections")


def _classified_corpus():
    corpus = []
    for s in range(1, 13):
        corpus.append(normal_form_curve(s))
    corpus.append(R3.parse(OSCNODE))
    corpus.append(R3.parse("x1^2*x2^3 - x0^5"))
    corpus.append(R3.parse("x1^2*x2^2 - x1*x0^2*x2"))
    out = []
    for F in corpus:
        verdict, _ = classify_double_point(F, (0, 0, 1))
        assert verdict.kind == "double_point"
        out.append((verdict.normalized.affine, verdict.s))
    return out


def test_criterion_07_parity_and_bound_laws():
    rng = random.Random(71)
    violations = 0
    for f, s in _classified_corpus():
        r = (s + 1) // 2
        witness_prefix = None
        for _ in range(50):
            length = rng.randint(1, r + 2)
            coeffs = [Fraction(rng.randint(-2, 2)) for _ in range(length)]
            if rng.random() < 0.5:
                # bias towards tangency to exercise nontrivial contact orders
                coeffs[0] = Fraction(0)
            graph = GraphCurve(coeffs)
            i = graph_intersection_multiplicity(f, graph)
            if i != INF and i <= 2 * r and i % 2 == 1:
                violations += 1
            if s == 2 * r:
                if i == INF or i > 2 * r + 1:
                    violations += 1
    assert violations == 0
    report(7, "even-contact law below 2r and the 2r+1 bound for even types: 0 violations")


def test_criterion_08_oracle_equivalence():
    rng = random.Random(88)
    checked = 0
    while checked < 200:
        terms = {}
        for _ in range(rng.randint(2, 6)):
            i, j = rng.randint(0, 4), rng.randint(0, 4)
            if 0 < i + j <= 4:
                terms[(i, j)] = Fraction(rng.randint(-3, 3))
        f = R2.from_terms(terms)
        if f.is_zero:
            continue
        graph = GraphCurve([Fraction(rng.randint(-2, 2)) for _ in range(rng.randint(1, 4))])
        fast = graph_intersection_multiplicity(f, graph)
        if fast == INF:
            continue
        oracle = truncated_local_multiplicity(f, graph.implicit_poly(R2))
        assert not oracle.cap_reached
        assert oracle.value == fast, (str(f), graph.coefficients)
        checked += 1
    report(8, "graph substitution agrees with the truncated local oracle on 200 pairs")


def test_criterion_09_contact_scheme_not_on_a_line():
    I = Ideal(R2, [R2.parse("y - x^2"), R2.parse("x^3")])
    assert degree_slice_members(I, 0) == [] and degree_slice_members(I, 1) == []
    # the two conjugate cubic branches cut exactly this scheme
    K = QuadraticField(-1)
    ring = PolyRing(("x", "y"), K)
    branches = Ideal(
        ring,
        [ring.parse("y - x^2 - sqrt(-1)*x^3"), ring.parse("y - x^2 + sqrt(-1)*x^3")],
    )
    assert branches == Ideal(ring, [ring.parse("y - x^2"), ring.parse("x^3")])
    report(9, "the length-3 contact scheme (y - x^2, x^3) contains no linear form")


def test_criterion_10_projective_invariance():
    rng = random.Random(101)
    curves = [
        (R3.parse(OSCNODE), 5),
        (normal_form_curve(1), 1),
        (normal_form_curve(2), 2),
        (normal_form_curve(3), 3),
        (normal_form_curve(4), 4),
        (R3.parse("x1^2*x2^2 - x1*x0^2*x2"), 3),
    ]
    for F, s in curves:
        for _ in range(20):
            while True:
                M = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
                if matrix_rank(M) == 3:
                    break
            moved = F.linear_change(M)
            inverse = matrix_inverse(M, QQ)
            point = tuple(inverse[i][2] for i in range(3))
            verdict, _ = classify_double_point(moved, point)
            assert verdict.s == s, (str(F), M)
    report(10, "verdicts unchanged under 20 random projective changes per curve")
